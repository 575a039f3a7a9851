// Package tensor provides the sparse and dense N-mode tensor data
// structures of the paper.
//
// COO is the only sparse storage: one mode-major int32 index stream per
// mode plus the value array. The symbolic update lists, every TTMc
// kernel, the dimension tree, and the distributed local tensors all
// scan these streams directly. SortDedup canonicalizes a tensor —
// duplicates summed with an appearance-order tie-break, so the result
// is bitwise identical for the same input — and Merge/MergeIndexed
// ingest coordinate deltas with stable storage ids, reporting which
// positions changed so the symbolic and memoization layers can
// invalidate precisely.
//
// The package also holds the dense tensor with matricization helpers,
// text I/O in the FROSTT-style .tns format, and the slice-size
// statistics driving the partitioners and the experiment harness.
package tensor
