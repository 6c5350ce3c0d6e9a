package events

import (
	"cmp"
	"slices"

	"sgxperf/internal/evstore"
)

// StreamSort rewrites the trace's order-sensitive tables into the
// stream-sorted layout the streaming analyzer fold requires: ecalls and
// ocalls each globally sorted by (Start, ID), paging by (Time, ID). The
// remaining tables are order-free for the fold and are left untouched.
// Call it before Save when the trace is destined for out-of-core
// analysis; resident analysis is order-insensitive either way.
func StreamSort(t *Trace) {
	byStart := func(a, b CallEvent) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	}
	for _, tbl := range []*evstore.Table[CallEvent]{t.Ecalls, t.Ocalls} {
		rows := tbl.Rows()
		slices.SortStableFunc(rows, byStart)
		tbl.Replace(rows)
	}
	paging := t.Paging.Rows()
	slices.SortStableFunc(paging, func(a, b PagingEvent) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.ID, b.ID))
	})
	t.Paging.Replace(paging)
}
