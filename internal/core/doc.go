// Package core implements the shared-memory HOOI algorithm of the
// paper (Algorithm 1 / Algorithm 3): the alternating least squares
// sweep that, for each mode, computes the TTMc product with all other
// factor matrices, extracts the leading left singular vectors of the
// matricized result (TRSVD), and finally forms the core tensor and the
// fit measure. ST-HOSVD initialization and adaptive rank selection
// under a relative error budget (Options.Eps) are included.
//
// The API splits the paper's symbolic/numeric separation into two
// objects (see docs/architecture.md):
//
//   - Plan is the immutable per-tensor analysis: option validation,
//     the per-mode symbolic update lists over the COO index streams,
//     and the TTMc strategy binding (the flat kernel or the memoized
//     dimension tree). A Plan is a pure function of (tensor, options).
//   - Engine holds the resident mutable state — factors, TRSVD
//     workspaces, memoized partials, and an engine-owned copy of the
//     evolving tensor once deltas arrive. Run converges from the
//     current factors; Update ingests a coordinate delta through the
//     incremental merge/splice/invalidate paths of every layer and
//     re-converges warm.
//
// Decompose is the batch convenience: NewPlan + NewEngine + Run. All
// paths are bitwise deterministic across thread counts.
package core
