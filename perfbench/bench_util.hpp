// bench_util.hpp — the benchmark's own measuring code: argument parsing,
// percentiles, the result digest and the in-memory span recorder. Kept
// apart from main.cpp so the tests can check each piece on its own.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- arguments --------------------------------------------------------------

enum class Workload { kSwFleet, kHwFleet, kSweepReuse };

inline constexpr const char* kUsage =
    "usage: perfbench --workload sw_fleet|hw_fleet|sweep_reuse --seed N "
    "--seconds S [--trace 0|1] [--jobs N] [--setup-only]\n"
    "  --jobs N      minimum work per run (jobs; sweep rounds for "
    "sweep_reuse); the run goes on past --seconds until N are done\n"
    "  --setup-only  start the service, run the warm-up job, print READY "
    "and exit\n";

struct Args {
  Workload workload = Workload::kSwFleet;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t jobs = 0;  ///< 0 = the workload's default
  bool setup_only = false;
};

[[nodiscard]] inline const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSwFleet: return "sw_fleet";
    case Workload::kHwFleet: return "hw_fleet";
    case Workload::kSweepReuse: return "sweep_reuse";
  }
  return "?";
}

namespace detail {
inline std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    throw std::invalid_argument(flag + " needs a whole number, got '" + v + "'");
  }
  return std::stoull(v);
}
}  // namespace detail

/// Strict parser: an unknown flag, a missing value, an unknown workload,
/// or a zero --seconds / --jobs throws std::invalid_argument, so a bad
/// command line never turns into a run of zero jobs.
[[nodiscard]] inline Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--jobs") {
      throw std::invalid_argument("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argv.size()) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string& v = argv[++i];
    if (flag == "--workload") {
      if (v == "sw_fleet") args.workload = Workload::kSwFleet;
      else if (v == "hw_fleet") args.workload = Workload::kHwFleet;
      else if (v == "sweep_reuse") args.workload = Workload::kSweepReuse;
      else throw std::invalid_argument("unknown workload '" + v + "'");
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = detail::parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = detail::parse_uint(flag, v);
      if (s == 0 || s > 3600) {
        throw std::invalid_argument("--seconds must be in 1..3600");
      }
      args.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = v == "1";
    } else {  // --jobs
      args.jobs = detail::parse_uint(flag, v);
      if (args.jobs == 0) throw std::invalid_argument("--jobs must be >= 1");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!have_seconds && !args.setup_only) {
    throw std::invalid_argument("--seconds is required");
  }
  return args;
}

// --- statistics -------------------------------------------------------------

/// A nearest-rank percentile and the samples behind it. `beyond` counts the
/// samples strictly after the chosen rank: a tail percentile is reported
/// only when at least ten samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

[[nodiscard]] inline Percentile percentile(std::vector<double> values,
                                           double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const double exact = p / 100.0 * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

// --- output digest ----------------------------------------------------------

/// What a finished evolution computed, reduced to the fields the golden
/// digest covers.
struct JobRecord {
  std::uint64_t seed = 0;
  std::uint64_t best_genome = 0;
  std::uint64_t generations = 0;
  std::uint64_t clock_cycles = 0;
};

/// FNV-1a over the records' fields in order; any changed bit in any
/// record changes the digest (with overwhelming probability).
[[nodiscard]] inline std::uint64_t digest(const std::vector<JobRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (const JobRecord& r : records) {
    mix(r.seed);
    mix(r.best_genome);
    mix(r.generations);
    mix(r.clock_cycles);
  }
  return h;
}

/// SplitMix64: the benchmark derives every input (job seeds, sweep draws)
/// from --seed with its own generator, so a change to the program's RNG
/// cannot change what the program is asked to do.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- spans ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, since exec). The kernel
/// leaves out the time a virtual CPU was runnable but held by the host
/// (steal), which on a shared host swings wall-clock figures by tens of
/// percent from one minute to the next.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One timed interval at a layer boundary. `name` is "<layer>.<what>";
/// the root span of a thread is named "bench" and its self time is the
/// unattributed residue.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's trace, -1 = none
  std::uint64_t job = 0;
};

/// Spans of one thread, kept in memory and written out at the end. Not
/// thread-safe: every recording thread owns its own Trace.
class Trace {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint64_t job = 0) {
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  /// Closes the innermost open span.
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  /// Records an already-timed child of the innermost open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t job = 0) {
    spans_.push_back(Span{name, start_ns, end_ns,
                          stack_.empty() ? -1 : stack_.back(), job});
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII helper for Trace::open/close; a null trace records nothing.
class Scoped {
 public:
  Scoped(Trace* trace, const char* name, std::uint64_t job = 0)
      : trace_(trace) {
    if (trace_) trace_->open(name, job);
  }
  ~Scoped() {
    if (trace_) trace_->close();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace* trace_;
};

[[nodiscard]] inline std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are merged first, so
/// overlapping children are not subtracted twice).
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_ns);
      b = std::min(b, p.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

/// Per-layer self time over several threads' traces. `wall_ns` is the sum
/// of the root ("bench") spans, which is the traced wall time of every
/// recording thread; the "bench" entry is the unattributed residue, so the
/// entries always add up to `wall_ns`.
struct LayerBudget {
  std::map<std::string, std::int64_t> self_ns;
  std::int64_t wall_ns = 0;
};

[[nodiscard]] inline LayerBudget layer_budget(
    const std::vector<const std::vector<Span>*>& threads) {
  LayerBudget out;
  for (const std::vector<Span>* t : threads) {
    const auto& spans = *t;
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out.self_ns[layer_of(spans[i].name)] += self[i];
      if (spans[i].parent < 0) out.wall_ns += spans[i].end_ns - spans[i].start_ns;
    }
  }
  return out;
}

}  // namespace perfbench
