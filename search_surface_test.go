package hybridtree_bench

import (
	"reflect"
	"strings"
	"testing"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/index"
)

// TestSearchSurface lists the exported Search* methods of every layer that
// answers queries, so that the next spelling is a deliberate diff here.
// core.Tree.Search is the one path; everything else is a one-statement
// constructor of a core.Query kept for a named caller (DESIGN.md "Query
// path").
func TestSearchSurface(t *testing.T) {
	const coreTree = "Search SearchBox SearchBoxContext SearchKNN SearchKNNApprox SearchKNNContext SearchPoint SearchRange SearchRangeContext"
	for _, tc := range []struct {
		typ  any
		want string
	}{
		{(*core.Tree)(nil), coreTree},
		{(*concurrent.Tree)(nil), "Search SearchKNN"},
		{(*concurrent.Executor)(nil), "Search SearchBox SearchKNN SearchRange"},
		// Hybrid embeds *core.Tree: it declares Search (index.Index's,
		// shadowing core's) and is promoted the rest.
		{(*index.Hybrid)(nil), coreTree},
	} {
		typ := reflect.TypeOf(tc.typ)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Search") {
				got = append(got, name)
			}
		}
		if got := strings.Join(got, " "); got != tc.want {
			t.Errorf("%v exports\n  %s\nwant\n  %s", typ, got, tc.want)
		}
	}
}
