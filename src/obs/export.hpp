// export.hpp — getting telemetry out of the process.
//
// Two renderings of a metrics snapshot: to_json_line writes one JSON
// object ({"type":"metrics",...}) for grep/jq-friendly trajectories, and
// pretty_print an aligned listing for humans. Whoever wants continuous
// export (the CLI's `serve` REPL) calls them and owns the file.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace leo::obs {

/// {"type":"metrics","counters":{...}}
[[nodiscard]] std::string to_json_line(const MetricsSnapshot& snapshot);
/// Human-readable aligned listing for `discipulus_cli stats`.
[[nodiscard]] std::string pretty_print(const MetricsSnapshot& snapshot);

}  // namespace leo::obs
