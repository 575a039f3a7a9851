// Package ttm implements the tensor-times-matrix-chain (TTMc) kernels
// of the paper (eq. 4 / Algorithm 2): for each mode, the matricized
// tensor is contracted with every other mode's factor matrix, with
// row-parallel owner-computes numeric execution over the symbolic
// update lists, on weight-balanced row chains with work-stealing, so
// results are bitwise deterministic for any thread count.
//
// TTMc / TTMcRows are the flat nonzero loop over the COO index
// streams, built on the fused Kronecker row kernels (kron.go).
//
// On top of the per-mode kernels sit DTree, the dimension-tree TTMc
// memoization that caches the partial contractions shared between a
// sweep's N updates (with per-entry dirty invalidation for delta
// ingest via ApplyDelta), core-tensor formation, and a MET-style
// TTM-chain baseline that materializes semi-sparse intermediate
// tensors (the Matlab Tensor Toolbox strategy the paper compares
// against in §V).
package ttm
