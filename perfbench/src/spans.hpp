// In-memory span log for the traced benchmark run.
//
// One span per bench-side call into a library layer: name, start, end, and
// the enclosing span.  Spans live in a vector while the run measures and are
// written out as JSON lines once it ends, so recording costs two clock reads
// and one push_back.  Only the thread that owns the log records into it;
// spans measured on another thread are added after that thread is joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int32_t rep = 0;      ///< measured repetition the span belongs to
};

class SpanLog {
 public:
  /// RAII span: opens on construction, closes on destruction.  A disabled
  /// log hands out inert scopes, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int32_t index_ = -1;
  };

  void set_rep(std::int32_t rep) noexcept { rep_ = rep; }

  /// Adds a span measured elsewhere (another thread), under the current one.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns, current_, rep_});
  }

  /// Sum of durations of every span called `name` in repetition `rep`.
  [[nodiscard]] double total_ns(const std::string& name, std::int32_t rep) const;
  /// Sum of self times (duration minus the part covered by child spans).
  [[nodiscard]] double self_ns(const std::string& name, std::int32_t rep) const;
  [[nodiscard]] std::size_t count(const std::string& name, std::int32_t rep) const;

  /// Writes one JSON object per span: name, start/end (ns, relative to the
  /// first span), parent index, repetition.
  void write_jsonl(const std::string& path) const;

 private:
  std::int32_t open(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_, rep_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::int32_t rep_ = 0;
};

}  // namespace perfbench
