package sparql

// Test-only exports: the differential tests need to force the sharded
// NS implementation on inputs far below DefaultMinPartition.

// MaximalParMin is the sharded NS (maximalParB) with a tunable
// partition threshold.
func (s *RowSet) MaximalParMin(bud *Budget, workers, minPart int) (*RowSet, error) {
	return s.maximalParB(bud, newPool(workers-1), minPart, nil)
}
