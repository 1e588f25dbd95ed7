// rc::ml::ExecEngine — a compiled, immutable inference representation for
// tree ensembles, built once per loaded model (on the store-load path, never
// on the prediction path).
//
// Layout (DESIGN.md "Execution engine"): every internal node of every tree
// in the ensemble lives in one contiguous structure-of-arrays node pool —
// separate `feature_idx`, `threshold`, and packed `child_pair` arrays (both
// 32-bit child links in one 64-bit word: left in the low half, right in the
// high half, so one load — and in the AVX2 kernel one gather — fetches both
// descent candidates) — instead of the per-tree array-of-structs the trainer
// produces. Leaves are not nodes at all: a child link is either a
// non-negative index into the pool or the bitwise complement (~payload,
// always negative) of an index into the leaf-payload table. The walk loop is
// therefore branch-light:
//
//   while (link >= 0)
//     pair = child_pair[link];                      // {left, right} together
//     link = x[feature_idx[link]] < threshold[link] ? low32(pair)
//                                                   : high32(pair);
//   payload = ~link;
//
// One comparison steers the descent and the sign bit terminates it — no
// "is this a leaf" load, no pointer chasing across per-tree allocations.
//
// The one entry point, `PredictBatch` (a single example is n == 1), walks
// tree-major (outer loop over trees, inner loop over examples) so a tree's
// slice of the pool stays hot in cache across the whole batch; per-example
// accumulation order over trees is unchanged, which keeps results
// bit-identical to the legacy traversal (the exec_engine parity suite
// asserts exact equality with PredictProbaLegacy, NaN/∞ inputs included).
// It is allocation-free: callers own the output buffers, and the engine
// needs no scratch beyond them.
//
// Walk modes (`ExecEngine::Mode`): one exact walk with two executions.
// kScalar is the portable branchless 16-lane walk — the only walk on hosts
// without AVX2 and the parity reference for the kernel; kAvx2 runs full
// 32- and 16-row blocks through the gather/compare/blend kernel in
// exec_engine_avx2.cc (runtime CPUID dispatch — bit-exact with kScalar,
// since the kernel only selects leaf indices). kAuto resolves to kAvx2 when
// available, else kScalar; an explicit kAvx2 request degrades the same way,
// so every mode works on every host.
#ifndef RC_SRC_ML_EXEC_ENGINE_H_
#define RC_SRC_ML_EXEC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ml/classifier.h"
#include "src/ml/tree.h"

namespace rc::ml {

class RandomForest;
class GradientBoostedTrees;

class ExecEngine {
 public:
  // How per-tree leaf payloads combine into class probabilities.
  enum class Family {
    kAveragedForest,  // classification trees; mean of per-leaf distributions
    kBoosted,         // regression trees; logit accumulation + sigmoid/softmax
  };

  // Which walk executes a PredictBatch call. See the header comment;
  // Resolve() maps a requested mode to the one that actually runs on this
  // host/model.
  enum class Mode : uint8_t {
    kAuto = 0,    // AVX2 when available, else scalar
    kScalar = 1,  // portable branchless lockstep walk
    kAvx2 = 2,    // gather/blend kernel; falls back to scalar if absent
  };
  static const char* ModeName(Mode mode);
  // True when the AVX2 kernel is compiled in (RC_ENABLE_AVX2), the CPU
  // reports AVX2, and the RC_DISABLE_AVX2 env kill-switch is not set (any
  // non-empty value other than "0" disables; read once per process).
  static bool Avx2Available();

  static ExecEngine Compile(const RandomForest& forest);
  static ExecEngine Compile(const GradientBoostedTrees& gbt);
  // Dispatch on the concrete classifier type; nullptr for types without a
  // compiled representation (e.g. test doubles).
  static std::shared_ptr<const ExecEngine> TryCompile(const Classifier& model);

  Family family() const { return family_; }
  int num_classes() const { return num_classes_; }
  int num_features() const { return num_features_; }
  size_t tree_count() const { return root_link_.size(); }
  size_t internal_node_count() const { return feature_idx_.size(); }
  size_t leaf_payload_count() const {
    return family_ == Family::kAveragedForest
               ? leaf_probs_.size() / static_cast<size_t>(num_classes_)
               : leaf_values_.size();
  }

  // The mode a request actually executes as on this host: kAuto picks AVX2
  // when available, and kAvx2 degrades to kScalar without the kernel.
  Mode Resolve(Mode mode) const;

  // --- memory footprint (the cache-residency story; see bytes() users in
  // core::Client's rc_client_model_bytes gauge and perf_exec_engine) ---
  // f64 node pool (feature/threshold/child arrays) + leaf payload tables.
  size_t bytes() const;

  // Batched inference: `X` is row-major with `n` examples of `stride`
  // doubles each (stride >= num_features(); only the first num_features()
  // of each row are read). Writes n * num_classes() probabilities to
  // `proba_out`. Allocation-free; `proba_out` doubles as the logit scratch
  // for the boosted family. A single example is n == 1.
  void PredictBatch(const double* X, size_t n, size_t stride, double* proba_out,
                    Mode mode = Mode::kAuto) const;

 private:
  ExecEngine() = default;

  // Flattens one tree into the pool; returns nothing, appends the root link.
  void AddTree(const DecisionTree& tree);

  // Lockstep width for the batched walk. Each example's descent is a chain
  // of dependent loads; stepping a lane of descents round-robin gives the
  // CPU that many independent chains to overlap, which is where the batched
  // throughput win over single-example calls comes from.
  static constexpr size_t kWalkLanes = 16;
  // Block width for the batched accumulation loop. The AVX2 kernel prefers
  // full 32-row blocks (twice the independent gather chains, half the
  // per-call overhead — which shallow boosted trees are bound by); the
  // scalar walk splits a block into 16-lane lockstep chunks, so block size
  // never changes scalar results.
  static constexpr size_t kSimdBlock = 32;
  // AVX2 gather indices are int32 row_offset + feature; keep 4 * stride
  // comfortably inside int32 or fall back to the scalar walk.
  static constexpr size_t kMaxSimdStride = size_t{1} << 28;

  // One branchless descent step shared by the scalar lockstep walk and the
  // AVX2 tail path (lanes that don't fill a 16-wide block). A lane already
  // at its leaf (negative link) re-reads node 0 harmlessly and keeps its
  // link via mask selects, so lanes reaching leaves at different depths cost
  // no branch mispredictions. The masks are spelled out in integer
  // arithmetic (not ?:) because the compiler otherwise lowers the descend
  // direction to a conditional branch; a balanced tree makes that branch
  // ~50% mispredicted, and every flush discards the other lanes' in-flight
  // loads, serializing the whole walk.
  int32_t StepBranchless(int32_t link, const double* row) const {
    const int32_t done = link >> 31;  // all-ones at a leaf
    const size_t u = static_cast<size_t>(link & ~done);  // node 0 once done
    const int32_t go_left = -static_cast<int32_t>(
        row[static_cast<size_t>(feature_idx_[u])] < threshold_[u]);
    // One 64-bit load fetches both children; the variable shift (0 when
    // descending left, 32 when right) selects without a branch.
    const uint64_t pair = static_cast<uint64_t>(child_pair_[u]);
    const int32_t next = static_cast<int32_t>(pair >> (32 & ~go_left));
    return (link & done) | (next & ~done);
  }

  // Walks `m` (<= kWalkLanes) consecutive rows of `X` through the tree
  // rooted at `root` in lockstep for exactly `rounds` comparison rounds
  // (the tree's depth, from tree_depth_); writes each row's leaf payload
  // index.
  void WalkLane(int32_t root, int32_t rounds, const double* X, size_t stride,
                size_t m, int32_t* payload) const;
  // Mode-dispatched block walk for `m` <= kSimdBlock rows: full 32-row and
  // 16-row blocks go through the AVX2 kernels when `avx2`, everything else
  // (tails, leaf-roots) through the scalar WalkLane in 16-lane chunks.
  void WalkBlock(bool avx2, int32_t root, int32_t rounds, const double* X,
                 size_t stride, size_t m, int32_t* payload) const;

  // Turns accumulated logits (boosted) / sums (forest) into probabilities.
  void FinalizeRows(size_t n, double* proba_out) const;

  Family family_ = Family::kAveragedForest;
  int num_classes_ = 0;
  int num_features_ = 0;
  double learning_rate_ = 0.0;      // boosted only
  std::vector<double> base_score_;  // boosted only (1 logit binary, k multi)

  // Per-tree root link: >= 0 indexes the node pool, < 0 is ~payload (a tree
  // whose root is already a leaf).
  std::vector<int32_t> root_link_;
  // Per-tree depth (max internal nodes on any root-to-leaf path): the exact
  // round count for the lockstep lane walk, so the batch loop needs no
  // "any lane still descending?" check between rounds.
  std::vector<int32_t> tree_depth_;
  // The SoA internal-node pool, all trees concatenated. Child links are
  // packed in pairs — left in the low 32 bits, right in the high 32 — so a
  // descent step costs one child load (one gather per 4 lanes in the AVX2
  // kernel) instead of two.
  std::vector<int32_t> feature_idx_;
  std::vector<double> threshold_;
  std::vector<int64_t> child_pair_;
  // Leaf payload tables (one of the two, per family).
  std::vector<float> leaf_probs_;    // forest: payload * num_classes + c
  std::vector<double> leaf_values_;  // boosted: payload
};

}  // namespace rc::ml

#endif  // RC_SRC_ML_EXEC_ENGINE_H_
