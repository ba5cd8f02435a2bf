// wormctl fleet-network subcommands (serve / ingest / race / status), split
// out of wormctl.cpp to keep the monolith readable.  Flag grammars are
// documented in the wormctl.cpp header comment and README.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/event_log.hpp"
#include "support/cli.hpp"

namespace wormctl {

/// A rejected command line or operator request.  main() prints only the
/// message, as `error: <message>` — no C++ condition, no source path.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws UsageError(message) unless `ok`: the check for every flag value
/// and operator request the subcommands validate themselves.
inline void require(bool ok, const char* message) {
  if (!ok) throw UsageError(message);
}

/// `wormctl serve` — run a containment node: TCP ingest, alert gossip,
/// checkpoint replication, promote-on-failure.
int cmd_serve(const worms::support::CliArgs& args);

/// `wormctl ingest` — stream a trace to a serve node with resume/failover.
int cmd_ingest(const worms::support::CliArgs& args);

/// `wormctl race` — the deterministic alert-vs-worm race simulation.
int cmd_race(const worms::support::CliArgs& args);

/// `wormctl status` — query live serve nodes over StatsQuery/StatsReport and
/// render per-node state plus a merged fleet rollup.
int cmd_status(const worms::support::CliArgs& args);

// Flag helpers shared between `serve` (here) and `contain` (wormctl.cpp):
// strict --metrics-listen port parse (rejects 0 and > 65535), --events /
// --events-clock handling, and the journal writer.
[[nodiscard]] std::uint16_t parse_metrics_listen(const worms::support::CliArgs& args);
[[nodiscard]] std::string parse_events_path(const worms::support::CliArgs& args);
[[nodiscard]] worms::obs::EventLogOptions parse_event_log_options(
    const worms::support::CliArgs& args);
void write_event_journal(const worms::obs::EventLog& events, const std::string& path);

}  // namespace wormctl
