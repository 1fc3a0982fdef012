// The workloads. Each fills a Report; main.cc prints it.
#pragma once

#include <initializer_list>

#include "common.h"

namespace perfbench {

/// offline_fp32 (quant = false) and offline_int8 (quant = true).
void run_offline(const Options& opt, bool quant, Report& rep);

/// serve_chat.
void run_serving(const Options& opt, Report& rep);

/// trace.self_frac.<layer>: each layer's self time over the run
/// tracer's total self time.
void set_self_fractions(const Tracer& run, Report& rep);

/// Writes each tracer's spans to <trace_dir>/<workload>-seed<n>.<i>.tsv.
void write_traces(const Options& opt, std::initializer_list<const Tracer*> tracers,
                  Report& rep);

}  // namespace perfbench
