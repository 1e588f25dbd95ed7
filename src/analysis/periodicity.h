// FFT-based workload-class detector (paper Section 3.6): a VM whose
// average-CPU series exhibits a dominant spectral peak at the diurnal
// frequency (or its first harmonic) over >= 3 days is classified as
// potentially interactive; everything else long-running is delay-insensitive;
// VMs that did not run 3 consecutive days are Unknown. The classification is
// deliberately conservative: false "interactive" labels are acceptable,
// false "delay-insensitive" labels are not.
#ifndef RC_SRC_ANALYSIS_PERIODICITY_H_
#define RC_SRC_ANALYSIS_PERIODICITY_H_

#include <span>

#include "src/common/sim_time.h"
#include "src/trace/vm_types.h"

namespace rc::analysis {

// Classifies a raw average-CPU series sampled at 5-minute slots.
rc::trace::WorkloadClass ClassifySeries(std::span<const double> avg_series);

// Convenience: synthesizes the VM's telemetry for the analysis window and
// classifies it. Returns Unknown for VMs that ran less than 3 days.
rc::trace::WorkloadClass ClassifyVm(const rc::trace::VmRecord& vm);

}  // namespace rc::analysis

#endif  // RC_SRC_ANALYSIS_PERIODICITY_H_
