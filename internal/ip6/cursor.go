package ip6

// Cursor pulls addresses in ascending order: each call yields the next
// one, with ok=false at the end. Every sorted-address stream of the
// external-memory path is one: a spilled run (RunFile.Cursor), a .hl6
// shard, a sorted resident slice (SliceCursor), and the k-way merge of
// any of them (MergeCursors).
type Cursor func() (a Addr, ok bool, err error)

// SliceCursor returns a cursor over addrs, which must be sorted
// ascending.
func SliceCursor(addrs []Addr) Cursor {
	return func() (Addr, bool, error) {
		if len(addrs) == 0 {
			return Addr{}, false, nil
		}
		a := addrs[0]
		addrs = addrs[1:]
		return a, true, nil
	}
}

// mergeHead is one input of a merge: its cursor and the address it
// yielded last, also kept as words so the heap compares integers.
type mergeHead struct {
	hi, lo uint64
	head   Addr
	next   Cursor
}

func (h *mergeHead) less(o *mergeHead) bool {
	return h.hi < o.hi || h.hi == o.hi && h.lo < o.lo
}

// MergeCursors k-way merges ascending cursors into one ascending cursor,
// dropping duplicates within and across them. It keeps a binary
// min-heap of the inputs' heads, so memory is O(inputs) and comparisons
// O(N log inputs) — linear even for the hundreds-of-runs fan-in an
// uncompacted writer accumulates.
//
// An address is returned before its input is advanced past it, so an
// input's error surfaces on the pull after every address merged ahead of
// it; from then on the merge returns that error and nothing else.
func MergeCursors(curs ...Cursor) Cursor {
	heap := make([]mergeHead, 0, len(curs))
	var err error
	for _, c := range curs {
		a, ok, cerr := c()
		if cerr != nil {
			err = cerr
			break
		}
		if ok {
			heap = append(heap, mergeHead{hi: a.Hi(), lo: a.Lo(), head: a, next: c})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	var lastHi, lastLo uint64
	emitted, advance := false, false
	return func() (Addr, bool, error) {
		for err == nil {
			if advance {
				// heap[0]'s head went out on the previous pull.
				advance = false
				a, ok, cerr := heap[0].next()
				switch {
				case cerr != nil:
					err = cerr
					return Addr{}, false, err
				case ok:
					heap[0].hi, heap[0].lo, heap[0].head = a.Hi(), a.Lo(), a
				default:
					heap[0] = heap[len(heap)-1]
					heap = heap[:len(heap)-1]
				}
				siftDown(heap, 0)
			}
			if len(heap) == 0 {
				return Addr{}, false, nil
			}
			h := &heap[0]
			advance = true
			if !emitted || h.hi != lastHi || h.lo != lastLo {
				lastHi, lastLo, emitted = h.hi, h.lo, true
				return h.head, true, nil
			}
		}
		return Addr{}, false, err
	}
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []mergeHead, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].less(&h[min]) {
			min = l
		}
		if r < n && h[r].less(&h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
