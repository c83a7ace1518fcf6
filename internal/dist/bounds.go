package dist

// DominatesL2 reports whether m(a,b) >= L2(a,b) for all points, i.e.
// whether a Euclidean lower bound is also a lower bound under m. Distance
// -based regions (the SR-tree's bounding spheres) are defined in Euclidean
// terms; when a query arrives under a different metric the sphere can only
// be used for pruning if this holds. L_p norms with p <= 2 dominate L2
// (power-mean inequality), as do weighted variants whose weights are all
// >= 1; for anything else we conservatively answer false and the caller
// falls back to rectangle-only pruning.
func DominatesL2(m Metric) bool {
	switch v := m.(type) {
	case LpMetric:
		return v.P <= 2
	case euclidean:
		return true
	case WeightedLp:
		if v.P > 2 {
			return false
		}
		for _, w := range v.Weights {
			if w < 1 {
				return false
			}
		}
		return true
	default:
		return false
	}
}
