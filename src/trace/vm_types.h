// Core schema for the synthetic Azure-like VM trace. Field layout mirrors the
// AzurePublicDataset "vmtable" published alongside the paper: every VM carries
// identifiers (VM, deployment, subscription), size, creation/termination
// times, and utilization summaries, plus the latent generative parameters we
// use to synthesize its 5-minute telemetry deterministically.
#ifndef RC_SRC_TRACE_VM_TYPES_H_
#define RC_SRC_TRACE_VM_TYPES_H_

#include <cstdint>
#include <type_traits>

#include "src/common/sim_time.h"

namespace rc::trace {

enum class Party : uint8_t { kFirst = 0, kThird = 1 };
enum class VmType : uint8_t { kIaas = 0, kPaas = 1 };
enum class GuestOs : uint8_t { kLinux = 0, kWindows = 1 };
// First-party subscriptions carry a production / non-production annotation;
// Algorithm 1 only oversubscribes with non-production VMs.
enum class DeploymentTag : uint8_t { kProduction = 0, kNonProduction = 1 };
// Top first-party services are named "svc-0".."svc-19".
inline constexpr int kNumServices = 20;
// Regions are numbered 0..kNumRegions-1; the generator draws from this range
// and the featurizer one-hot encodes it, so both read this one constant.
inline constexpr int kNumRegions = 6;

// IaaS VMs carry no role; PaaS VMs run one of four role types. The codes are
// the ones ClientInputs::role carries.
enum class Role : uint8_t {
  kIaas = 0,
  kWebRole = 1,
  kWorkerRole = 2,
  kCacheRole = 3,
  kDbRole = 4,
};
enum class WorkloadClass : uint8_t {
  kDelayInsensitive = 0,
  kInteractive = 1,
  kUnknown = 2,  // lived < 3 days; periodicity cannot be established
};

const char* ToString(Party p);
const char* ToString(VmType t);
const char* ToString(GuestOs os);
const char* ToString(DeploymentTag t);
const char* ToString(Role r);
const char* ToString(WorkloadClass c);

// One 5-minute utilization reading: min/avg/max virtual CPU utilization as a
// fraction of the VM's allocation in [0, 1].
struct CpuReading {
  double min_cpu = 0.0;
  double avg_cpu = 0.0;
  double max_cpu = 0.0;
};

// Latent parameters of the per-VM utilization process. These are *generative*
// state, deterministic given the VM; the observable telemetry is derived from
// them by UtilizationModel. Resource Central never reads them directly.
struct UtilizationParams {
  uint64_t seed = 0;        // noise stream seed
  double base = 0.1;        // baseline average utilization (fraction)
  double diurnal_amp = 0.0; // amplitude of the 24h component (interactive VMs)
  double diurnal_phase_h = 0.0;  // peak offset in hours
  double noise_amp = 0.02;  // smooth value-noise amplitude
  double burst_amp = 0.1;   // spiky max-over-slot headroom above avg
};

// 128 bytes and trivially copyable: the whole trace stays resident through
// the pipeline and the simulator's set-up, so names are stored as codes.
struct VmRecord {
  uint64_t vm_id = 0;
  uint64_t deployment_id = 0;
  uint64_t subscription_id = 0;
  int32_t region = 0;

  Party party = Party::kFirst;
  VmType vm_type = VmType::kIaas;
  GuestOs guest_os = GuestOs::kLinux;
  DeploymentTag tag = DeploymentTag::kProduction;

  int32_t cores = 1;
  Role role = Role::kIaas;
  // Top first-party service: 0 = unknown (third-party / small services),
  // N + 1 = "svc-N". The code ClientInputs::service_id carries.
  uint8_t service = 0;
  // Ground-truth class: kUnknown for VMs that lived < 3 days.
  WorkloadClass true_class = WorkloadClass::kUnknown;

  double memory_gb = 1.75;

  SimTime created = 0;
  SimTime deleted = 0;  // termination time; may exceed the observation window

  UtilizationParams util;

  // Ground-truth summaries computed from the synthesized telemetry at
  // generation time (what the telemetry pipeline would aggregate).
  double avg_cpu = 0.0;      // lifetime average of avg readings
  double p95_max_cpu = 0.0;  // 95th percentile of per-slot max readings

  SimDuration lifetime() const { return deleted - created; }
  double CoreHours() const {
    return static_cast<double>(cores) * static_cast<double>(lifetime()) / kHour;
  }
};
static_assert(sizeof(VmRecord) == 128);
static_assert(std::is_trivially_copyable_v<VmRecord>);

// Latent per-subscription profile. Subscriptions are the unit of behavioural
// consistency in the paper (Section 3): VMs of a subscription mostly share a
// type, size, utilization level, lifetime regime, and workload class.
struct SubscriptionProfile {
  uint64_t subscription_id = 0;
  Party party = Party::kFirst;
  VmType dominant_type = VmType::kIaas;
  double type_consistency = 1.0;  // probability a VM uses the dominant type
  GuestOs dominant_os = GuestOs::kLinux;
  DeploymentTag tag = DeploymentTag::kProduction;
  uint8_t service = 0;  // VmRecord::service code; 0 unless a top first-party service
  int32_t home_region = 0;

  // Dominant bucket + consistency per metric (see common/buckets.h).
  int avg_util_bucket = 0;
  int p95_util_bucket = 0;
  int lifetime_bucket = 0;
  // Preferred position within the lifetime bucket (0 = short end, 1 = long
  // end): VMs cluster around it, which is what keeps most subscriptions'
  // lifetime CoV below 1 (Section 3.5) despite buckets spanning decades.
  double lifetime_pos = 0.5;
  int deploy_vms_bucket = 0;
  double metric_consistency = 0.85;  // P(VM falls in the dominant bucket)

  // Preferred VM size (index into the size catalog) and stickiness.
  int size_index = 0;
  double size_consistency = 0.9;

  // Probability that a long-lived VM of this subscription is interactive.
  double interactive_prob = 0.0;

  double popularity = 1.0;  // relative deployment-arrival weight (Zipf)
};

}  // namespace rc::trace

#endif  // RC_SRC_TRACE_VM_TYPES_H_
