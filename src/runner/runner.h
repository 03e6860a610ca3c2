// Umbrella header for the batch execution subsystem (system S8: the
// campaign runner -- see docs/RUNNER.md).
#pragma once

#include "runner/campaign.h"
#include "runner/campaign_spec.h"
#include "runner/checkpoint.h"
#include "runner/params.h"
#include "runner/result_columns.h"
#include "runner/shard_plan.h"
#include "runner/summary.h"
#include "util/thread_pool.h"

namespace gather::runner {

// The pool lives in src/util (header-only, layer rank 0); the runner-facing
// name stays for the existing campaign/tool call sites.
using util::thread_pool;

}  // namespace gather::runner
