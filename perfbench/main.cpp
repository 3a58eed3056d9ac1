// perfbench — evolution jobs through serve::EvolutionService, end to end
// and layer by layer. Workloads, metrics and the traced run are described
// in perfbench/README.md; perfbench/run.py builds this program and runs it.
//
// Output: "READY <process CPU seconds>" once set-up is done (the next
// thing is the first timed submission), human-readable report lines, then
// one line
//   RESULT {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every output check passed, 1 when one failed, 2 for a
// bad command line.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/evolution_engine.hpp"
#include "fitness/rules.hpp"
#include "gap/fitness_unit.hpp"
#include "gap/gap_top.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "rtl/simulator.hpp"
#include "serve/checkpoint.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {
namespace {

using leo::core::Backend;
using leo::core::EvolutionConfig;
using leo::core::EvolutionResult;
using leo::serve::EvolutionService;
using leo::serve::JobHandle;
using leo::serve::JobState;

/// Two workers and at most two callers leave the other cores of a 4-core
/// host to the OS and to neighbours, which keeps run-to-run spread low.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kFleetCallers = 2;
constexpr std::size_t kRoundSize = 48;
constexpr std::size_t kSweepQueueDepth = 8;
/// The fixed job set checked against golden.hpp in every run.
constexpr std::uint64_t kGoldenSeed = 1999;
constexpr std::size_t kGoldenSwJobs = 64;
constexpr std::size_t kGoldenHwJobs = 16;
constexpr std::size_t kGoldenRounds = 6;
/// Replayed jobs over which the traced run's exact counts are taken.
constexpr std::size_t kExactReplays = 32;
constexpr std::size_t kMaxResumeChecks = 1000;
/// Each replayed job's final population is scored this many times over to
/// give fitness::score a span long enough to time.
constexpr int kScoreReps = 8;
/// A tail percentile needs enough samples beyond it to mean anything.
constexpr std::size_t kMinP99Samples = 1000;

std::size_t default_jobs(Workload w) {
  switch (w) {
    case Workload::kSwFleet: return 6000;
    case Workload::kHwFleet: return 2500;
    case Workload::kSweepReuse: return 200;  // rounds of kRoundSize
  }
  return 1;
}

// --- the jobs ---------------------------------------------------------------

/// The sweep grid: selection threshold x mutations per generation around
/// the paper's operating point (0.8, 15), inside the plateau where every
/// point reaches the maximum fitness.
constexpr double kSelection[] = {0.7, 0.75, 0.8, 0.85, 0.9};
constexpr unsigned kMutations[] = {10, 12, 15, 18, 20};
constexpr std::uint8_t kGridPoints = 25;
constexpr std::uint8_t kPaperPoint = 2 * 5 + 2;

struct JobSpec {
  std::uint64_t seed = 0;
  std::uint8_t point = kPaperPoint;  ///< grid index
  std::uint32_t budget = 0;          ///< generation budget, 0 = none
};

EvolutionConfig to_config(Workload w, const JobSpec& spec) {
  EvolutionConfig c;
  c.backend = w == Workload::kHwFleet ? Backend::kHardware : Backend::kSoftware;
  c.seed = spec.seed;
  c.ga.selection_threshold =
      leo::util::Prob8::from_double(kSelection[spec.point / 5]);
  c.ga.mutations_per_generation = kMutations[spec.point % 5];
  return c;
}

/// Job i of a fleet stream: the paper's parameters and a seed of its own.
JobSpec fleet_job(std::uint64_t stream_seed, std::uint64_t i) {
  return JobSpec{splitmix64(splitmix64(stream_seed) + i)};
}

/// What the caller saw for one submission. Compact, because tens of
/// thousands are kept and memory is a reported metric.
struct Done {
  JobSpec spec;
  std::uint64_t index = 0;  ///< fleet: stream index; sweep: submission order
  std::uint64_t genome = 0;
  std::uint64_t generations = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t cycles = 0;
  double latency_ms = 0.0;
  unsigned fitness = 0;
  JobState state = JobState::kFailed;
  bool reached = false;
  bool from_cache = false;
  bool coalesced = false;
  bool resumed = false;
  bool repeat = false;  ///< sweep: re-submits a point submitted before
};

void fill(Done& d, const EvolutionResult& r) {
  d.genome = r.best_genome;
  d.generations = r.generations;
  d.evaluations = r.evaluations;
  d.cycles = r.clock_cycles;
  d.fitness = r.best_fitness;
  d.reached = r.reached_target;
}

/// Waits for a terminal job and records its outcome; wait() throws for
/// failed and rejected jobs, which keep state() for the error count.
void collect(Done& d, JobHandle& h) {
  try {
    fill(d, h.wait());
  } catch (const std::exception&) {
  }
  d.state = h.state();
  d.from_cache = h.from_cache();
  d.coalesced = h.coalesced();
}

bool ran_engine(const Done& d) { return !d.from_cache && !d.coalesced; }

/// Host CPU counters (all CPUs, in ticks) from /proc/stat: the time the
/// CPUs ran something, and the time the host held a runnable virtual CPU.
struct HostTicks {
  double busy = 0.0;
  double steal = 0.0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  // user nice system idle iowait irq softirq steal
  return {v[0] + v[1] + v[2] + v[5] + v[6], v[7]};
}

/// Share of the wanted CPU time the host took away between two samples.
double steal_share(const HostTicks& a, const HostTicks& b) {
  const double steal = b.steal - a.steal;
  const double wanted = (b.busy - a.busy) + steal;
  return wanted > 0.0 ? steal / wanted : 0.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

leo::serve::ServiceOptions service_options(Workload w) {
  leo::serve::ServiceOptions o;
  o.threads = kWorkers;
  if (w == Workload::kSweepReuse) {
    o.max_queue_depth = kSweepQueueDepth;
    o.admission = leo::serve::AdmissionPolicy::kBlock;
    // Unbounded: an eviction depends on timing and would change which
    // submissions hit the cache, i.e. the exact set of engine runs.
    o.cache_capacity = 0;
  }
  return o;
}

// --- a measured run through the service ---------------------------------------

struct Run {
  std::vector<Done> done;
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< process CPU time over the run
  double steal_share = 0.0;  ///< share of wanted CPU the host took meanwhile
  std::size_t prefix = 0;         ///< leading records that make the minimum work
  double rss_at_prefix_mb = 0.0;  ///< VmHWM when the minimum work was done
  std::vector<double> snapshot_us;  ///< serialize + deserialize per snapshot
  std::vector<std::size_t> snapshot_bytes;
  std::size_t prefix_snapshots = 0;  ///< snapshots taken within the prefix
  /// sweep: record index -> the serialized snapshot it resumed from.
  std::map<std::size_t, std::vector<std::uint8_t>> resumed_from;
  std::vector<std::unique_ptr<Trace>> traces;
};

/// Closed loop: each caller submits one job, waits for it, then takes the
/// next stream index, until `seconds` have passed and `min_jobs` are done.
Run run_fleet(EvolutionService& service, Workload w, std::uint64_t stream_seed,
              double seconds, std::size_t min_jobs, bool traced) {
  Run run;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<double> rss{0.0};
  std::vector<std::vector<Done>> per_caller(kFleetCallers);
  for (std::size_t c = 0; c < kFleetCallers; ++c) {
    run.traces.push_back(traced ? std::make_unique<Trace>() : nullptr);
  }
  const HostTicks host0 = host_ticks();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);

  auto caller = [&](std::size_t c) {
    Trace* trace = run.traces[c].get();
    if (trace) trace->open("bench");
    leo::serve::JobOptions options;
    options.use_cache = false;
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      if (i >= min_jobs && now_ns() >= deadline) break;
      Done d;
      d.index = i;
      d.spec = fleet_job(stream_seed, i);
      const EvolutionConfig config = to_config(w, d.spec);
      const std::int64_t s0 = now_ns();
      JobHandle h;
      {
        Scoped span(trace, "serve.submit", i);
        h = service.submit(config, options);
      }
      {
        Scoped span(trace, "serve.wait", i);
        collect(d, h);
      }
      d.latency_ms = static_cast<double>(now_ns() - s0) / 1e6;
      per_caller[c].push_back(d);
      if (completed.fetch_add(1) + 1 == min_jobs) rss.store(peak_rss_mb());
    }
    if (trace) trace->close();
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kFleetCallers; ++c) threads.emplace_back(caller, c);
  for (auto& t : threads) t.join();
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  run.cpu_s = process_cpu_s() - cpu0;
  run.steal_share = steal_share(host0, host_ticks());

  for (auto& v : per_caller) run.done.insert(run.done.end(), v.begin(), v.end());
  // Stream order, so the first min_jobs records are the deterministic prefix.
  std::sort(run.done.begin(), run.done.end(),
            [](const Done& a, const Done& b) { return a.index < b.index; });
  run.prefix = min_jobs;
  run.rss_at_prefix_mb = rss.load();
  return run;
}

/// One sweep round: kRoundSize points drawn from the grid by the round's
/// own generator. About half repeat a point that succeeded in an earlier
/// round (cache hits), some repeat a fresh point of the same round
/// (coalesced followers or hits), and one in eight carries a generation
/// budget so it suspends.
std::vector<std::pair<JobSpec, bool>> make_round(
    std::uint64_t stream_seed, std::uint64_t round,
    const std::vector<JobSpec>& history) {
  std::uint64_t state = splitmix64(splitmix64(stream_seed) ^ (round * 0x9E37u + 1));
  auto draw = [&state] { return state = splitmix64(state); };
  std::vector<std::pair<JobSpec, bool>> items;  // (spec, repeat)
  std::vector<std::size_t> fresh;
  for (std::size_t k = 0; k < kRoundSize; ++k) {
    const std::uint64_t u = draw() % 1000;
    if (u < 500 && !history.empty()) {
      items.emplace_back(history[draw() % history.size()], true);
    } else if (u < 560 && !fresh.empty()) {
      items.emplace_back(items[fresh[draw() % fresh.size()]].first, true);
    } else {
      JobSpec s;
      s.seed = draw();
      s.point = static_cast<std::uint8_t>(draw() % kGridPoints);
      if (u >= 560 && u < 685) {
        s.budget = static_cast<std::uint32_t>(2 + draw() % 14);
      } else {
        fresh.push_back(k);
      }
      items.emplace_back(s, false);
    }
  }
  return items;
}

/// One caller: each round resumes the previous round's suspended jobs
/// from their serialized snapshots, submits the round with submit_batch()
/// into a bounded kBlock queue, and waits for every job before the next.
Run run_sweep(EvolutionService& service, std::uint64_t stream_seed,
              double seconds, std::size_t min_rounds, bool traced) {
  Run run;
  run.traces.push_back(traced ? std::make_unique<Trace>() : nullptr);
  Trace* trace = run.traces[0].get();
  if (trace) trace->open("bench");
  struct Pending {
    JobSpec spec;
    std::vector<std::uint8_t> bytes;
    double serialize_us;
  };
  std::vector<JobSpec> history;
  std::vector<Pending> pending;
  const HostTicks host0 = host_ticks();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);

  for (std::uint64_t round = 0;; ++round) {
    if (round == min_rounds) {
      run.prefix = run.done.size();
      run.prefix_snapshots = run.snapshot_bytes.size();
      run.rss_at_prefix_mb = peak_rss_mb();
    }
    if (round >= min_rounds && now_ns() >= deadline) break;

    // Resume the last round's suspended jobs first.
    std::vector<std::pair<Done, JobHandle>> resumed;
    std::vector<std::int64_t> resume_t0;
    for (Pending& p : pending) {
      const std::int64_t a = now_ns();
      leo::serve::Snapshot snap;
      {
        Scoped span(trace, "serve.snapshot");
        snap = leo::serve::deserialize_snapshot(p.bytes);
      }
      const std::int64_t b = now_ns();
      run.snapshot_us.push_back(p.serialize_us + static_cast<double>(b - a) / 1e3);
      Done d;
      d.spec = p.spec;
      d.resumed = true;
      JobHandle h;
      {
        Scoped span(trace, "serve.submit");
        h = service.resume(snap);
      }
      resume_t0.push_back(b);
      if (traced) {
        run.resumed_from[run.done.size() + resumed.size()] = std::move(p.bytes);
      }
      resumed.emplace_back(d, h);
    }
    pending.clear();

    const auto items = make_round(stream_seed, round, history);
    std::vector<leo::serve::BatchItem> batch(items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
      batch[k].config = to_config(Workload::kSweepReuse, items[k].first);
      batch[k].options.generation_budget = items[k].first.budget;
    }
    const std::int64_t s0 = now_ns();
    leo::serve::BatchHandle bh;
    {
      Scoped span(trace, "serve.submit");
      bh = service.submit_batch(batch);
    }

    for (std::size_t r = 0; r < resumed.size(); ++r) {
      auto& [d, h] = resumed[r];
      {
        Scoped span(trace, "serve.wait");
        collect(d, h);
      }
      d.latency_ms = static_cast<double>(now_ns() - resume_t0[r]) / 1e6;
      d.index = run.done.size();
      run.done.push_back(d);
      if (d.state == JobState::kSucceeded) history.push_back(JobSpec{d.spec.seed, d.spec.point, 0});
    }

    const std::size_t base = run.done.size();
    run.done.resize(base + items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
      std::size_t idx = 0;
      {
        Scoped span(trace, "serve.wait");
        idx = bh.wait_any();
      }
      Done& d = run.done[base + idx];
      d.latency_ms = static_cast<double>(now_ns() - s0) / 1e6;
      JobHandle h = bh.jobs()[idx];
      collect(d, h);
    }
    for (std::size_t k = 0; k < items.size(); ++k) {
      Done& d = run.done[base + k];
      d.spec = items[k].first;
      d.repeat = items[k].second;
      d.index = base + k;
      if (d.state == JobState::kSuspended) {
        const auto snap = bh.jobs()[k].snapshot();
        if (!snap) {
          d.state = JobState::kFailed;
          continue;
        }
        const std::int64_t a = now_ns();
        Pending p{d.spec, {}, 0.0};
        {
          Scoped span(trace, "serve.snapshot");
          p.bytes = leo::serve::serialize_snapshot(*snap);
        }
        p.serialize_us = static_cast<double>(now_ns() - a) / 1e3;
        run.snapshot_bytes.push_back(p.bytes.size());
        pending.push_back(std::move(p));
      } else if (d.state == JobState::kSucceeded && !d.repeat) {
        history.push_back(JobSpec{d.spec.seed, d.spec.point, 0});
      }
    }
  }
  if (trace) trace->close();
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  run.cpu_s = process_cpu_s() - cpu0;
  run.steal_share = steal_share(host0, host_ticks());
  return run;
}

Run run_workload(EvolutionService& service, Workload w, std::uint64_t seed,
                 double seconds, std::size_t min_jobs, bool traced) {
  if (w == Workload::kSweepReuse) {
    return run_sweep(service, seed, seconds, min_jobs, traced);
  }
  return run_fleet(service, w, seed, seconds, min_jobs, traced);
}

// --- direct replay through the layers ----------------------------------------

/// One job re-run directly, outside the service, with a span around each
/// layer's part of it.
struct Replay {
  EvolutionResult result;
  std::vector<std::uint64_t> population;  ///< final genomes, for the fitness probe
  std::uint64_t rtl_evaluations = 0;
  std::uint64_t eval_cycles = 0, selxover_cycles = 0, mutate_cycles = 0;
};

Replay replay_software(const EvolutionConfig& config, std::uint32_t budget,
                       const leo::serve::Snapshot* from, Trace* trace,
                       std::uint64_t job) {
  Replay out;
  Scoped engine(trace, "core.engine", job);
  std::unique_ptr<leo::core::EvolutionSession> session;
  {
    Scoped span(trace, "ga.start", job);
    session = from ? std::make_unique<leo::core::EvolutionSession>(
                         config, from->state, from->rng_state)
                   : std::make_unique<leo::core::EvolutionSession>(config);
  }
  // The same hooks the service installs, so the replay takes its code path;
  // each progress call closes one generation's span.
  std::int64_t last = now_ns();
  leo::core::RunControl control;
  control.generation_budget = budget;
  control.should_stop = [] { return false; };
  control.on_progress = [&](std::uint64_t, unsigned) {
    const std::int64_t t = now_ns();
    if (trace) trace->add("ga.generation", last, t, job);
    last = now_ns();
  };
  out.result = session->run(control);
  if (trace) trace->add("ga.generation", last, now_ns(), job);
  for (const auto& ind : session->state().population) {
    out.population.push_back(ind.genome.to_u64());
  }
  return out;
}

Replay replay_hardware(const EvolutionConfig& config, Trace* trace,
                       std::uint64_t job) {
  Replay out;
  Scoped engine(trace, "core.engine", job);
  // core::evolve's hardware path, split at the layer boundaries: the
  // fitness netlist, the GapTop tree, elaboration, and the simulation.
  leo::gap::CombinationalFitness fitness;
  {
    Scoped span(trace, "fpga.netlist", job);
    fitness = leo::gap::make_gait_fitness(config.spec);
  }
  leo::gap::GapParams params = config.gap;
  params.target_fitness = config.spec.max_score();
  std::unique_ptr<leo::gap::GapTop> top;
  {
    Scoped span(trace, "gap.build", job);
    top = std::make_unique<leo::gap::GapTop>(nullptr, "gap", params,
                                             config.seed, std::move(fitness));
  }
  std::unique_ptr<leo::rtl::Simulator> sim;
  {
    Scoped span(trace, "rtl.elaborate", job);
    sim = std::make_unique<leo::rtl::Simulator>(*top, config.sim_mode);
  }
  const std::uint64_t max_cycles =
      (config.max_generations + 2) * params.population_size * 40;
  {
    Scoped span(trace, "rtl.run", job);
    sim->run_until([&] { return top->done.read(); }, max_cycles);
  }
  EvolutionResult& r = out.result;
  r.reached_target = top->done.read();
  r.generations = top->generation();
  r.best_genome = top->best_genome();
  r.best_fitness = top->best_fitness();
  r.evaluations = (top->generation() + 1) * params.population_size;
  r.clock_cycles = sim->cycles();
  out.rtl_evaluations = sim->evaluations();
  out.eval_cycles = top->cycles_in_eval();
  out.selxover_cycles = top->cycles_in_selxover();
  out.mutate_cycles = top->cycles_in_mutate();
  for (std::uint32_t i = 0; i < params.population_size; ++i) {
    out.population.push_back(top->peek_basis(i));
  }
  sim.reset();  // the simulator holds the tree's hooks: release it first
  return out;
}

/// Scores `genomes` kScoreReps times inside a "fitness.score" span;
/// returns the number of calls. The sum keeps the calls from being elided.
std::uint64_t fitness_probe(const std::vector<std::uint64_t>& genomes,
                            const leo::fitness::FitnessSpec& spec,
                            Trace* trace, std::uint64_t job,
                            std::uint64_t& sink) {
  Scoped span(trace, "fitness.score", job);
  for (int rep = 0; rep < kScoreReps; ++rep) {
    for (const std::uint64_t g : genomes) sink += leo::fitness::score(g, spec);
  }
  return genomes.size() * kScoreReps;
}

bool same_result(const EvolutionResult& r, const Done& d) {
  return r.best_genome == d.genome && r.generations == d.generations &&
         r.clock_cycles == d.cycles && r.best_fitness == d.fitness &&
         r.reached_target == d.reached;
}

// --- checks -----------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

/// Every job that succeeded reached the target, and its genome scores the
/// reported fitness, which is the spec's maximum. A suspended job stopped
/// exactly at its budget. Failed and rejected submissions are errors.
void check_outputs(Workload w, const Run& run, Checks& checks) {
  for (const Done& d : run.done) {
    ++checks.attempted;
    const auto spec = to_config(w, d.spec).spec;
    char where[96];
    std::snprintf(where, sizeof where, "job %" PRIu64 " (seed %" PRIu64 ")",
                  d.index, d.spec.seed);
    if (d.state == JobState::kSucceeded) {
      if (!d.reached || d.fitness != spec.max_score() ||
          leo::fitness::score(d.genome, spec) != d.fitness) {
        checks.fail(std::string(where) + ": result fails the fitness check");
      } else if (w == Workload::kHwFleet && d.cycles == 0) {
        checks.fail(std::string(where) + ": hardware job reports no cycles");
      }
    } else if (d.state == JobState::kSuspended) {
      if (d.spec.budget == 0 || d.generations != d.spec.budget || d.reached) {
        checks.fail(std::string(where) + ": suspended off its budget");
      }
    } else {
      checks.fail(std::string(where) + ": ended " +
                  leo::serve::to_string(d.state));
    }
  }
}

/// A resumed job must equal the uninterrupted run of the same config.
void check_resumes(const Run& run, Checks& checks) {
  std::size_t n = 0;
  for (const Done& d : run.done) {
    if (!d.resumed || d.state != JobState::kSucceeded) continue;
    if (++n > kMaxResumeChecks) break;
    JobSpec whole = d.spec;
    whole.budget = 0;
    const EvolutionResult r =
        leo::core::evolve(to_config(Workload::kSweepReuse, whole));
    if (!same_result(r, d) || r.evaluations != d.evaluations) {
      checks.fail("resumed job seed " + std::to_string(d.spec.seed) +
                  " differs from its uninterrupted run");
    }
  }
}

/// Exact numbers of the fixed golden job set, by name.
std::vector<std::pair<std::string, std::uint64_t>> golden_values(Workload w) {
  EvolutionService service(service_options(w));
  const std::size_t jobs = w == Workload::kSweepReuse ? kGoldenRounds
                           : w == Workload::kHwFleet  ? kGoldenHwJobs
                                                      : kGoldenSwJobs;
  const Run run = run_workload(service, w, kGoldenSeed, 0.0, jobs, false);
  std::vector<JobRecord> records;
  std::uint64_t generations = 0, engine_runs = 0, bytes = 0;
  for (const Done& d : run.done) {
    records.push_back({d.spec.seed, d.genome, d.generations, d.cycles});
    generations += d.generations;
    engine_runs += ran_engine(d) ? 1 : 0;
  }
  for (const std::size_t b : run.snapshot_bytes) bytes += b;
  std::vector<std::pair<std::string, std::uint64_t>> out = {
      {"digest", digest(records)},
      {"submissions", run.done.size()},
      {"generations", generations},
      {"engine_runs", engine_runs},
      {"snapshot_bytes", bytes}};
  if (w == Workload::kHwFleet) {
    std::uint64_t cycles = 0, evals = 0, eval_c = 0, selx_c = 0, mut_c = 0;
    for (const Done& d : run.done) {
      cycles += d.cycles;
      const Replay r = replay_hardware(to_config(w, d.spec), nullptr, d.index);
      evals += r.rtl_evaluations;
      eval_c += r.eval_cycles;
      selx_c += r.selxover_cycles;
      mut_c += r.mutate_cycles;
    }
    out.insert(out.end(), {{"clock_cycles", cycles},
                           {"rtl_evaluations", evals},
                           {"eval_cycles", eval_c},
                           {"selxover_cycles", selx_c},
                           {"mutate_cycles", mut_c}});
  }
  return out;
}

void check_golden(Workload w, Checks& checks) {
  const auto values = golden_values(w);
  for (const auto& [name, value] : values) {
    ++checks.attempted;
    const GoldenEntry* want = nullptr;
    for (const GoldenEntry& g : kGolden) {
      if (workload_name(w) == std::string(g.workload) && name == g.name) want = &g;
    }
    std::printf("golden %-12s %-16s %" PRIu64 "%s\n", workload_name(w),
                name.c_str(), value,
                want && want->value == value ? "" : "   <-- MISMATCH");
    if (!want || want->value != value) {
      checks.fail("golden " + name + " = " + std::to_string(value) +
                  ", expected " +
                  (want ? std::to_string(want->value) : std::string("(none)")));
    }
  }
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
}

std::vector<Metric> end_to_end(Workload w, const Run& run) {
  std::vector<double> latency;
  latency.reserve(run.done.size());
  for (const Done& d : run.done) latency.push_back(d.latency_ms);
  const Percentile p50 = percentile(latency, 50.0);
  const Percentile p99 = percentile(latency, 99.0);
  double gens = 0.0, cycles = 0.0;
  for (std::size_t i = 0; i < run.prefix; ++i) {
    gens += static_cast<double>(run.done[i].generations);
    cycles += static_cast<double>(run.done[i].cycles);
  }
  gens /= static_cast<double>(run.prefix);
  cycles /= static_cast<double>(run.prefix);
  const double jobs = static_cast<double>(run.done.size());
  const double cpu_ms_per_job = run.cpu_s * 1e3 / jobs;

  std::printf("end to end (%s, %zu submissions in %.3f s; the host took "
              "%.1f %% of the CPU time this machine wanted)\n",
              workload_name(w), run.done.size(), run.wall_s,
              100.0 * run.steal_share);
  std::printf("  cpu_ms_per_job       %12.6f ms    (n=%zu; process CPU %.3f s)\n",
              cpu_ms_per_job, run.done.size(), run.cpu_s);
  // Wall-clock figures: printed, but not in the result line, because the
  // host's steal and contention move them by more than any usable bound.
  std::printf("  jobs_per_s           %12.2f 1/s   (n=%zu; wall clock)\n",
              jobs / run.wall_s, run.done.size());
  std::printf("  job_latency_p50_ms   %12.4f ms    (n=%zu, %zu beyond; wall clock)\n",
              p50.value, p50.samples, p50.beyond);
  if (p99.samples >= kMinP99Samples) {
    std::printf("  job_latency_p99_ms   %12.4f ms    (n=%zu, %zu beyond; wall clock)\n",
                p99.value, p99.samples, p99.beyond);
  }
  std::printf("  generations_per_job  %12.4f       (n=%zu, the first "
              "submissions; exact)\n", gens, run.prefix);
  if (w == Workload::kHwFleet) {
    std::printf("  sim_cycles_per_job   %12.2f cycles (n=%zu; exact; %.4f s "
                "at 1 MHz)\n", cycles, run.prefix, cycles / 1e6);
  }
  std::printf("  peak_rss_mb          %12.3f MB    (after the first %zu)\n",
              run.rss_at_prefix_mb, run.prefix);

  return {{"cpu_ms_per_job", cpu_ms_per_job, "ms"},
          {"generations_per_job", gens, "generations"},
          {"peak_rss_mb", run.rss_at_prefix_mb, "MB"}};
}

// --- the traced run -------------------------------------------------------------

struct SpanTotals {
  std::map<std::string, std::pair<std::int64_t, std::uint64_t>> by_name;  // ns, count

  void add(const Trace& t) {
    for (const Span& s : t.spans()) {
      auto& [ns, n] = by_name[s.name];
      ns += s.end_ns - s.start_ns;
      ++n;
    }
  }
  [[nodiscard]] double mean_us(const std::string& name) const {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.second == 0) return 0.0;
    return static_cast<double>(it->second.first) / 1e3 /
           static_cast<double>(it->second.second);
  }
  [[nodiscard]] double total_ns(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.first);
  }
};

void write_spans(const std::string& path, const std::vector<const Trace*>& traces) {
  std::ofstream out(path);
  if (!out) return;
  out << "thread,span,name,start_ns,end_ns,parent,job\n";
  std::size_t written = 0;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto& spans = traces[t]->spans();
    for (std::size_t i = 0; i < spans.size() && written < 200000; ++i, ++written) {
      const Span& s = spans[i];
      out << t << ',' << i << ',' << s.name << ',' << s.start_ns << ','
          << s.end_ns << ',' << s.parent << ',' << s.job << '\n';
    }
  }
}

std::vector<Metric> traced_run(const Args& args, std::size_t min_jobs,
                               Checks& checks) {
  const Workload w = args.workload;
  const double s = args.seconds;

  // 1. The workload's fixed first min_jobs, traced, between two untraced
  //    runs of the same jobs; each on a fresh service, so the sweep's cache
  //    starts empty every time. The wall times give the trace's own cost.
  auto fixed_run = [&](bool traced) {
    EvolutionService service(service_options(w));
    return run_workload(service, w, args.seed, 0.0, min_jobs, traced);
  };
  const double plain_s_before = fixed_run(false).wall_s;
  const Run served = fixed_run(true);
  const double plain_s = 0.5 * (plain_s_before + fixed_run(false).wall_s);
  check_outputs(w, served, checks);

  // 2. Direct replay of the jobs that ran an engine, in order.
  Trace replay_trace;
  replay_trace.open("bench");
  std::uint64_t calls = 0, sink = 0, replayed = 0;
  std::uint64_t x_cycles = 0, x_evals = 0, x_gens = 0, x_eval_c = 0,
                x_selx_c = 0, x_mut_c = 0, x_jobs = 0;
  std::uint64_t all_cycles = 0, all_evals = 0;
  std::vector<double> queue_wait_ms;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(s * 0.35 * 1e9);
  for (std::size_t i = 0; i < served.done.size(); ++i) {
    const Done& d = served.done[i];
    if (!ran_engine(d) || d.state == JobState::kFailed ||
        d.state == JobState::kRejected) {
      continue;
    }
    if (replayed >= kExactReplays && now_ns() >= deadline) break;
    const EvolutionConfig config = to_config(w, d.spec);
    const std::int64_t a = now_ns();
    Replay r;
    if (w == Workload::kHwFleet) {
      r = replay_hardware(config, &replay_trace, d.index);
    } else if (d.resumed) {
      const auto snap = leo::serve::deserialize_snapshot(served.resumed_from.at(i));
      r = replay_software(config, 0, &snap, &replay_trace, d.index);
    } else {
      r = replay_software(config, d.spec.budget, nullptr, &replay_trace, d.index);
    }
    const double engine_ms = static_cast<double>(now_ns() - a) / 1e6;
    calls += fitness_probe(r.population, config.spec, &replay_trace, d.index, sink);
    ++replayed;
    ++checks.attempted;
    if (!same_result(r.result, d)) {
      checks.fail("replay of job " + std::to_string(d.index) +
                  " differs from the service's result");
    }
    queue_wait_ms.push_back(d.latency_ms - engine_ms);
    all_cycles += r.result.clock_cycles;
    all_evals += r.rtl_evaluations;
    if (x_jobs < kExactReplays) {
      ++x_jobs;
      x_cycles += r.result.clock_cycles;
      x_gens += r.result.generations;
      x_evals += r.rtl_evaluations;
      x_eval_c += r.eval_cycles;
      x_selx_c += r.selxover_cycles;
      x_mut_c += r.mutate_cycles;
    }
  }
  replay_trace.close();

  // 3. Telemetry's cost: whole jobs replayed with obs off and on,
  //    alternating which goes first. Not traced.
  double off_ns = 0.0, on_ns = 0.0;
  std::vector<JobSpec> whole_jobs;
  for (const Done& d : served.done) {
    if (ran_engine(d) && !d.resumed && d.state == JobState::kSucceeded) {
      whole_jobs.push_back(d.spec);
    }
  }
  if (!whole_jobs.empty()) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(s * 0.15 * 1e9);
    for (std::size_t pairs = 0; pairs < 8 || now_ns() < end; ++pairs) {
      const JobSpec& spec = whole_jobs[pairs % whole_jobs.size()];
      const EvolutionConfig config = to_config(w, spec);
      for (int k = 0; k < 2; ++k) {
        const bool on = (k == 0) == (pairs % 2 == 0);
        leo::obs::set_enabled(on);
        const std::int64_t a = now_ns();
        const EvolutionResult r = leo::core::evolve(config);
        (on ? on_ns : off_ns) += static_cast<double>(now_ns() - a);
        sink += r.generations;
      }
    }
    leo::obs::set_enabled(true);
  }

  SpanTotals totals;
  std::vector<const Trace*> traces;
  for (const auto& t : served.traces) traces.push_back(t.get());
  traces.push_back(&replay_trace);
  for (const Trace* t : traces) totals.add(*t);
  std::vector<const std::vector<Span>*> threads;
  for (const Trace* t : traces) threads.push_back(&t->spans());
  const LayerBudget budget = layer_budget(threads);
  write_spans(".bench_build/spans_" + std::string(workload_name(w)) + ".csv", traces);

  std::uint64_t subs = 0, reused = 0, engine_runs = 0;
  for (std::size_t i = 0; i < served.prefix; ++i) {
    const Done& d = served.done[i];
    ++subs;
    if (!ran_engine(d)) ++reused;
    else ++engine_runs;
  }
  // Bytes over the prefix's snapshots only, so the count is exact.
  double snap_bytes = 0.0, snap_us = 0.0;
  for (std::size_t i = 0; i < served.prefix_snapshots; ++i) {
    snap_bytes += static_cast<double>(served.snapshot_bytes[i]);
  }
  for (const double u : served.snapshot_us) snap_us += u;

  // A layer the workload bypasses reports 0.
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double rtl_run_ns = totals.total_ns("rtl.run");
  const double wall = static_cast<double>(budget.wall_ns);
  auto self_pct = [&](const char* layer) {
    const auto it = budget.self_ns.find(layer);
    return it == budget.self_ns.end()
               ? 0.0
               : 100.0 * static_cast<double>(it->second) / wall;
  };
  snap_bytes = ratio(snap_bytes, static_cast<double>(served.prefix_snapshots));
  snap_us = ratio(snap_us, static_cast<double>(served.snapshot_us.size()));
  double prefix_cycles = 0.0;
  for (std::size_t i = 0; i < served.prefix; ++i) {
    prefix_cycles += static_cast<double>(served.done[i].cycles);
  }
  double queue_wait = 0.0;
  for (const double q : queue_wait_ms) queue_wait += q;
  const double x_total_cycles = static_cast<double>(x_cycles);

  std::printf("traced run (%s): %zu submissions served in %.3f s traced, "
              "%.3f s untraced; %" PRIu64 " engine runs replayed directly\n",
              workload_name(w), served.done.size(), served.wall_s, plain_s,
              replayed);
  std::printf("  self time by layer over %.3f s of traced thread time:\n",
              wall / 1e9);
  double sum = 0.0;
  for (const auto& [layer, ns] : budget.self_ns) {
    const double share = 100.0 * static_cast<double>(ns) / wall;
    sum += share;
    std::printf("    %-14s %10.3f ms %7.3f %%\n",
                layer == "bench" ? "(unattributed)" : layer.c_str(),
                static_cast<double>(ns) / 1e6, share);
  }
  std::printf("    %-14s %10.3f ms %7.3f %%\n", "sum", wall / 1e6, sum);
  if (sink == 42) std::printf(" ");  // keeps the probes' results observable

  const std::vector<Metric> metrics = {
      {"serve.submit_us", totals.mean_us("serve.submit"), "us"},
      {"serve.queue_wait_ms", ratio(queue_wait, static_cast<double>(queue_wait_ms.size())), "ms"},
      {"serve.reuse_ratio", ratio(static_cast<double>(reused), static_cast<double>(subs)), "ratio"},
      {"serve.engine_runs", static_cast<double>(engine_runs), "count"},
      {"serve.snapshot_us", snap_us, "us"},
      {"serve.snapshot_bytes", snap_bytes, "bytes"},
      {"core.engine_ms", totals.mean_us("core.engine") / 1e3, "ms"},
      {"ga.start_us", totals.mean_us("ga.start"), "us"},
      {"ga.generation_us", totals.mean_us("ga.generation"), "us"},
      {"fitness.score_ns", ratio(totals.total_ns("fitness.score"), static_cast<double>(calls)), "ns"},
      {"gap.build_us", totals.mean_us("gap.build"), "us"},
      {"fpga.netlist_us", totals.mean_us("fpga.netlist"), "us"},
      {"rtl.elaborate_us", totals.mean_us("rtl.elaborate"), "us"},
      {"rtl.cycles_per_s", ratio(static_cast<double>(all_cycles), rtl_run_ns / 1e9), "1/s"},
      {"rtl.evaluations_per_cycle", ratio(static_cast<double>(x_evals), x_total_cycles), "ratio"},
      {"rtl.ns_per_evaluation", ratio(rtl_run_ns, static_cast<double>(all_evals)), "ns"},
      {"gap.cycles_per_generation", ratio(x_total_cycles, static_cast<double>(x_gens)), "cycles"},
      {"gap.eval_share", ratio(static_cast<double>(x_eval_c), x_total_cycles), "ratio"},
      {"gap.selxover_share", ratio(static_cast<double>(x_selx_c), x_total_cycles), "ratio"},
      {"gap.mutate_share", ratio(static_cast<double>(x_mut_c), x_total_cycles), "ratio"},
      {"gap.sim_cycles_per_job", ratio(prefix_cycles, static_cast<double>(served.prefix)), "cycles"},
      {"obs.overhead_pct", 100.0 * (ratio(on_ns, off_ns) - 1.0), "%"},
      {"trace_overhead_pct", 100.0 * (ratio(served.wall_s, plain_s) - 1.0), "%"},
      {"unattributed_pct", self_pct("bench"), "%"},
      {"serve.self_pct", self_pct("serve"), "%"},
      {"core.self_pct", self_pct("core"), "%"},
      {"ga.self_pct", self_pct("ga"), "%"},
      {"fitness.self_pct", self_pct("fitness"), "%"},
      {"gap.self_pct", self_pct("gap"), "%"},
      {"fpga.self_pct", self_pct("fpga"), "%"},
      {"rtl.self_pct", self_pct("rtl"), "%"},
  };
  std::printf("  per layer (0 = bypassed by this workload):\n");
  for (const Metric& m : metrics) {
    std::printf("    %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return metrics;
}

int run_main(const Args& args) {
  const Workload w = args.workload;
  const std::size_t min_jobs = args.jobs ? args.jobs : default_jobs(w);
  EvolutionService service(service_options(w));
  {
    // Warm-up: fills the lazy fitness tables and starts the workers.
    leo::serve::JobOptions options;
    options.use_cache = false;
    service.submit(to_config(w, JobSpec{1}), options).wait();
  }
  // Process CPU since exec: loader, static set-up, service start, warm-up.
  std::printf("READY %.9f\n", process_cpu_s());
  std::fflush(stdout);
  if (args.setup_only) return 0;

  Checks checks;
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = traced_run(args, min_jobs, checks);
  } else {
    const Run run = run_workload(service, w, args.seed, args.seconds, min_jobs, false);
    metrics = end_to_end(w, run);
    check_outputs(w, run, checks);
    if (w == Workload::kSweepReuse) check_resumes(run, checks);
  }
  check_golden(w, checks);
  std::printf("  error_rate           %12.6f       (%" PRIu64 " of %" PRIu64
              " submissions and checks failed)\n",
              static_cast<double>(checks.failed) /
                  static_cast<double>(std::max<std::uint64_t>(checks.attempted, 1)),
              checks.failed, checks.attempted);
  for (const std::string& e : checks.errors) std::printf("  ERROR %s\n", e.c_str());
  print_result(checks, metrics);
  return checks.failed ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), perfbench::kUsage);
    return 2;
  }
  return perfbench::run_main(args);
}
