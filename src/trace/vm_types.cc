#include "src/trace/vm_types.h"

namespace rc::trace {

const char* ToString(Party p) { return p == Party::kFirst ? "first" : "third"; }

const char* ToString(VmType t) { return t == VmType::kIaas ? "IaaS" : "PaaS"; }

const char* ToString(GuestOs os) { return os == GuestOs::kLinux ? "Linux" : "Windows"; }

const char* ToString(DeploymentTag t) {
  return t == DeploymentTag::kProduction ? "production" : "non-production";
}

const char* ToString(Role r) {
  switch (r) {
    case Role::kIaas: return "IaaS";
    case Role::kWebRole: return "WebRole";
    case Role::kWorkerRole: return "WorkerRole";
    case Role::kCacheRole: return "CacheRole";
    case Role::kDbRole: return "DbRole";
  }
  return "?";
}

const char* ToString(WorkloadClass c) {
  switch (c) {
    case WorkloadClass::kDelayInsensitive: return "Delay-insensitive";
    case WorkloadClass::kInteractive: return "Interactive";
    case WorkloadClass::kUnknown: return "Unknown";
  }
  return "?";
}

}  // namespace rc::trace
