package core

import "hybridtree/internal/geom"

// searchBoxFunc streams every entry inside q to fn without materializing a
// result slice; fn returning false stops the search early (useful for
// EXISTS-style predicates and LIMIT queries). The Entry's Point is shared
// with the node cache and must be cloned if retained. Entries arrive in the
// same depth-first order SearchBox returns them.
func (t *Tree) searchBoxFunc(q geom.Rect, fn func(Entry) bool) error {
	_, err := t.search(nil, nil, &Query{Kind: Box, Rect: q}, nil, fn, nil)
	return err
}

// CountBox returns the number of entries inside q without materializing
// them.
func (t *Tree) CountBox(q geom.Rect) (int, error) {
	count := 0
	err := t.searchBoxFunc(q, func(Entry) bool {
		count++
		return true
	})
	return count, err
}
