// discipulus_cli — one front door to the whole reproduction.
//
//   discipulus_cli evolve [seed]          evolve a gait (software GA)
//   discipulus_cli evolve-hw [seed]       evolve on the RTL GAP
//   discipulus_cli play <genome>          analyze + walk a genome
//   discipulus_cli analyze <genome>       classification + rule breakdown
//   discipulus_cli resources              FPGA utilization report
//   discipulus_cli serve [threads] [metrics.jsonl]
//                                         interactive evolution job service
//   discipulus_cli submit <seeds...>      batch-evolve seeds via the service
//   discipulus_cli status <snapshot>      describe a checkpoint file
//   discipulus_cli stats [seed]           evolve once, dump the telemetry
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/discipulus.hpp"
#include "core/evolution_engine.hpp"
#include "example_args.hpp"
#include "fitness/rules.hpp"
#include "fpga/xc4000.hpp"
#include "genome/gait_analysis.hpp"
#include "genome/gait_genome.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "robot/walker.hpp"
#include "serve/checkpoint.hpp"
#include "serve/config_hash.hpp"
#include "serve/scheduler.hpp"

namespace {

using namespace leo;
using examples::parse_number;

int usage() {
  std::fprintf(stderr,
               "usage: discipulus_cli <command> [args]\n"
               "  evolve [seed]       evolve a gait with the software GA\n"
               "  evolve-hw [seed]    evolve on the cycle-accurate GAP\n"
               "  play <genome>       analyze and walk a 36-bit genome\n"
               "  analyze <genome>    classification and rule breakdown\n"
               "  resources           FPGA utilization of the full design\n"
               "  serve [threads] [metrics.jsonl]\n"
               "                      interactive evolution job service\n"
               "  submit <seeds...>   batch-evolve seeds via the service\n"
               "  status <snapshot>   describe a checkpoint file\n"
               "  stats [seed]        evolve once, dump the telemetry "
               "registry\n");
  return 2;
}

void show_genome(std::uint64_t bits) {
  const genome::GaitGenome g = genome::GaitGenome::from_bits(bits);
  const fitness::RuleViolations v = fitness::count_violations(g);
  std::printf("genome  : %s\n", g.to_hex().c_str());
  std::printf("fitness : %u/%u (R1 %u, R2 %u, R3 %u violations)\n",
              fitness::score(g), fitness::kDefaultSpec.max_score(),
              v.equilibrium, v.symmetry, v.coherence);
  std::printf("gait    : %s\n\n%s\n", genome::analyze(g).describe().c_str(),
              g.diagram().c_str());
}

int cmd_evolve(core::Backend backend, std::uint64_t seed) {
  core::EvolutionConfig config;
  config.backend = backend;
  config.seed = seed;
  const core::EvolutionResult r = core::evolve(config);
  if (!r.reached_target) {
    std::printf("did not converge\n");
    return 1;
  }
  std::printf("converged in %llu generations",
              static_cast<unsigned long long>(r.generations));
  if (r.clock_cycles > 0) {
    std::printf(" (%llu cycles = %.4f s at 1 MHz)",
                static_cast<unsigned long long>(r.clock_cycles),
                r.seconds_at_1mhz);
  }
  std::printf("\n\n");
  show_genome(r.best_genome);

  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  const robot::WalkMetrics m =
      walker.walk(genome::GaitGenome::from_bits(r.best_genome), 10);
  std::printf("walk    : %.3f m over 10 cycles, %u falls, %u stumbles, "
              "quality %.2f\n",
              m.distance_forward_m, m.falls, m.stumbles,
              m.quality(walker.ideal_distance(10)));
  return 0;
}

core::EvolutionConfig service_config(core::Backend backend,
                                     std::uint64_t seed) {
  core::EvolutionConfig config;
  config.backend = backend;
  config.seed = seed;
  return config;
}

void print_job_line(std::uint64_t local_id, const serve::JobHandle& job) {
  const serve::JobProgress p = job.progress();
  std::printf("  job %-4llu %-10s key %s  gen %llu  best %u",
              static_cast<unsigned long long>(local_id),
              serve::to_string(job.state()),
              serve::key_to_string(job.cache_key()).c_str(),
              static_cast<unsigned long long>(p.generation), p.best_fitness);
  if (job.from_cache()) std::printf("  (cached)");
  if (job.coalesced()) std::printf("  (coalesced)");
  if (job.state() == serve::JobState::kFailed ||
      job.state() == serve::JobState::kRejected) {
    std::printf("  error: %s", job.error().c_str());
  }
  std::printf("\n");
}

void print_cache_stats(const serve::EvolutionService& service) {
  const serve::CacheStats s = service.cache_stats();
  std::printf("cache: %llu hits, %llu misses, %zu entries (cap %zu), "
              "%llu evictions\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses), s.entries,
              s.capacity, static_cast<unsigned long long>(s.evictions));
}

/// Reads the REPL's next token with parse_number: a missing token keeps
/// `out` as it is, a malformed one returns false.
bool next_number(std::istream& in, std::uint64_t& out) {
  std::string token;
  return !(in >> token) || parse_number(token.c_str(), out);
}

/// Interactive job service: a tiny line-oriented REPL over an
/// EvolutionService, mirroring what a robot-side daemon would expose.
/// Calls `after_command` once each command has been handled.
void serve_repl(serve::EvolutionService& service, const auto& after_command) {
  std::map<std::uint64_t, serve::JobHandle> jobs;
  std::uint64_t next_id = 1;

  std::printf("evolution service ready (%zu threads); commands:\n"
              "  submit <seed> [gen-budget]   queue a software-GA job\n"
              "  submit-hw <seed> [gen-budget]\n"
              "                               queue a hardware (GAP) job\n"
              "  batch <count> [seed0] [gen-budget]\n"
              "                               queue a fleet of software jobs\n"
              "  status [id]                  job state and progress\n"
              "  cancel <id>                  cooperatively cancel a job\n"
              "  save <id> <file>             wait for a job to end, write its\n"
              "                               snapshot (cancel first to stop "
              "it)\n"
              "  resume <file>                resume a snapshot file\n"
              "  cache                        result-cache statistics\n"
              "  stats                        dump the metrics registry\n"
              "  quit\n",
              service.threads());

  std::string line;
  bool quit = false;
  while (!quit && std::printf("> ") && std::fflush(stdout) == 0 &&
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    try {
      if (cmd == "quit" || cmd == "exit") {
        quit = true;
      } else if (cmd == "submit" || cmd == "submit-hw") {
        std::uint64_t seed = 1;
        serve::JobOptions options;
        if (!next_number(in, seed) ||
            !next_number(in, options.generation_budget)) {
          std::printf("usage: %s <seed> [gen-budget]\n", cmd.c_str());
        } else {
          const auto backend = cmd == "submit" ? core::Backend::kSoftware
                                               : core::Backend::kHardware;
          jobs.emplace(next_id,
                       service.submit(service_config(backend, seed), options));
          std::printf("queued job %llu\n",
                      static_cast<unsigned long long>(next_id++));
        }
      } else if (cmd == "batch") {
        std::uint64_t count = 0;
        std::uint64_t seed0 = 1;
        serve::JobOptions options;
        if (!next_number(in, count) || count == 0 ||
            !next_number(in, seed0) ||
            !next_number(in, options.generation_budget)) {
          std::printf("usage: batch <count> [seed0] [gen-budget]\n");
        } else {
          std::vector<serve::BatchItem> items(count);
          for (std::size_t i = 0; i < items.size(); ++i) {
            items[i].config =
                service_config(core::Backend::kSoftware, seed0 + i);
            items[i].options = options;
          }
          const serve::BatchHandle batch = service.submit_batch(items);
          const std::uint64_t first = next_id;
          for (const serve::JobHandle& job : batch.jobs()) {
            jobs.emplace(next_id++, job);
          }
          std::printf("queued batch of %zu: jobs %llu..%llu\n", items.size(),
                      static_cast<unsigned long long>(first),
                      static_cast<unsigned long long>(next_id - 1));
        }
      } else if (cmd == "status") {
        std::string token;
        std::uint64_t id = 0;
        if (!(in >> token)) {
          for (const auto& [local_id, job] : jobs) {
            print_job_line(local_id, job);
          }
        } else if (!parse_number(token.c_str(), id)) {
          std::printf("usage: status [id]\n");
        } else {
          const auto it = jobs.find(id);
          if (it == jobs.end()) std::printf("no such job\n");
          else print_job_line(id, it->second);
        }
      } else if (cmd == "cancel") {
        std::uint64_t id = 0;
        if (!next_number(in, id)) {
          std::printf("usage: cancel <id>\n");
        } else {
          const auto it = jobs.find(id);
          if (it == jobs.end()) std::printf("no such job\n");
          else it->second.cancel();
        }
      } else if (cmd == "save") {
        std::uint64_t id = 0;
        std::string path;
        const bool parsed = next_number(in, id) && (in >> path);
        const auto it = jobs.find(id);
        if (!parsed || it == jobs.end()) {
          std::printf("usage: save <id> <file>\n");
        } else {
          (void)it->second.wait();  // throws for a failed job
          if (const auto snapshot = it->second.snapshot()) {
            serve::save_snapshot(path, *snapshot);
            std::printf("wrote %s\n", path.c_str());
          } else {
            std::printf("no snapshot (hardware job, cache hit, or "
                        "cancelled before it ran)\n");
          }
        }
      } else if (cmd == "resume") {
        std::string path;
        in >> path;
        jobs.emplace(next_id, service.resume(serve::load_snapshot(path)));
        std::printf("resumed as job %llu\n",
                    static_cast<unsigned long long>(next_id++));
      } else if (cmd == "cache") {
        print_cache_stats(service);
      } else if (cmd == "stats") {
        std::printf("%s", obs::pretty_print(obs::registry().snapshot())
                              .c_str());
      } else {
        std::printf("unknown command: %s\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
    after_command();
  }
}

/// Runs the REPL. With a metrics path, one JSON line of the metrics
/// registry is appended to that file after every command, plus a final one
/// once the service has shut down and every job is terminal.
int cmd_serve(std::size_t threads, const std::string& metrics_path) {
  std::ofstream metrics;
  if (!metrics_path.empty()) {
    metrics.open(metrics_path, std::ios::app);
    if (!metrics) {
      std::fprintf(stderr, "error: cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("appending metrics to %s\n", metrics_path.c_str());
  }
  const auto write_metrics = [&metrics] {
    if (metrics.is_open()) {
      metrics << obs::to_json_line(obs::registry().snapshot()) << '\n'
              << std::flush;
    }
  };
  {
    serve::EvolutionService service(threads);
    serve_repl(service, write_metrics);
  }  // joins the workers
  write_metrics();
  return 0;
}

/// Batch mode: one submit_batch() over all seeds, reported in completion
/// order as wait_any() surfaces each terminal job.
int cmd_submit_batch(const std::vector<std::uint64_t>& seeds) {
  serve::EvolutionService service;
  std::vector<serve::BatchItem> items(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    items[i].config = service_config(core::Backend::kSoftware, seeds[i]);
  }
  serve::BatchHandle batch = service.submit_batch(items);

  for (std::size_t idx = batch.wait_any(); idx != serve::BatchHandle::npos;
       idx = batch.wait_any()) {
    serve::JobHandle job = batch.jobs()[idx];
    try {
      const core::EvolutionResult r = job.wait();
      std::printf("seed %-6llu %s in %llu generations  genome %09llx%s%s\n",
                  static_cast<unsigned long long>(seeds[idx]),
                  r.reached_target ? "converged" : "stopped",
                  static_cast<unsigned long long>(r.generations),
                  static_cast<unsigned long long>(r.best_genome),
                  job.from_cache() ? "  (cached)" : "",
                  job.coalesced() ? "  (coalesced)" : "");
    } catch (const std::exception& e) {
      std::printf("seed %-6llu failed: %s\n",
                  static_cast<unsigned long long>(seeds[idx]), e.what());
    }
  }
  const serve::BatchProgress p = batch.progress();
  std::printf("batch: %zu jobs, %zu succeeded, %zu failed\n", p.total,
              p.succeeded, p.failed);
  print_cache_stats(service);
  return p.failed == 0 && p.rejected == 0 ? 0 : 1;
}

int cmd_snapshot_status(const char* path) {
  try {
    const serve::Snapshot snap = serve::load_snapshot(path);
    std::printf("%s", serve::describe_snapshot(snap).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// One instrumented software-GA run, then the whole registry: the fastest
/// way to see what the observability layer records (DESIGN.md §10).
int cmd_stats(std::uint64_t seed) {
  core::EvolutionConfig config;
  config.seed = seed;
  const core::EvolutionResult r = core::evolve(config);
  std::printf("seed %llu: %s in %llu generations, best genome %09llx\n\n",
              static_cast<unsigned long long>(seed),
              r.reached_target ? "converged" : "stopped",
              static_cast<unsigned long long>(r.generations),
              static_cast<unsigned long long>(r.best_genome));
  std::printf("%s", obs::pretty_print(obs::registry().snapshot()).c_str());
  return 0;
}

int cmd_play(std::uint64_t bits) {
  show_genome(bits);
  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  const robot::WalkMetrics m =
      walker.walk(genome::GaitGenome::from_bits(bits), 10);
  std::printf("walk    : %.3f m over 10 cycles (ideal %.3f), %u falls, "
              "%u stumbles, min margin %+.1f mm\n",
              m.distance_forward_m, walker.ideal_distance(10), m.falls,
              m.stumbles, m.min_margin_m * 1000.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "evolve" || cmd == "evolve-hw") {
    std::uint64_t seed = 1;
    if (argc > 2 && !parse_number(argv[2], seed)) return usage();
    return cmd_evolve(cmd == "evolve" ? core::Backend::kSoftware
                                      : core::Backend::kHardware,
                      seed);
  }
  if ((cmd == "play" || cmd == "analyze") && argc > 2) {
    std::uint64_t bits = 0;
    if (!parse_number(argv[2], bits)) return usage();
    if (bits >= genome::kSearchSpace) {
      std::fprintf(stderr, "genome must fit in 36 bits\n");
      return 1;
    }
    if (cmd == "analyze") {
      show_genome(bits);
      return 0;
    }
    return cmd_play(bits);
  }
  if (cmd == "resources") {
    core::DiscipulusParams params;
    core::DiscipulusTop top(nullptr, "discipulus", params, 1);
    std::printf("%s",
                fpga::report_utilization(top).to_string(fpga::kXc4036Ex)
                    .c_str());
    return 0;
  }
  if (cmd == "serve") {
    std::uint64_t threads = 0;
    if (argc > 2 && !parse_number(argv[2], threads)) return usage();
    return cmd_serve(threads, argc > 3 ? argv[3] : "");
  }
  if (cmd == "stats") {
    std::uint64_t seed = 1;
    if (argc > 2 && !parse_number(argv[2], seed)) return usage();
    return cmd_stats(seed);
  }
  if (cmd == "submit" && argc > 2) {
    std::vector<std::uint64_t> seeds;
    for (int i = 2; i < argc; ++i) {
      std::uint64_t seed = 0;
      if (!parse_number(argv[i], seed)) return usage();
      seeds.push_back(seed);
    }
    return cmd_submit_batch(seeds);
  }
  if (cmd == "status" && argc > 2) {
    return cmd_snapshot_status(argv[2]);
  }
  return usage();
}
