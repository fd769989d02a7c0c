// Package alloc implements the Frame Buffer allocation algorithm of the
// Complete Data Scheduler (Sanchez-Elez et al., DATE 2002, section 5).
//
// The allocator manages one Frame Buffer set as a linear address space. It
// keeps a list of free blocks (the paper's FB_list) and serves first-fit
// requests from either end: input data and inter-cluster shared objects
// are placed from the upper addresses, intermediate and final results from
// the lower addresses. When no single free block fits, a request may be
// split across several blocks (at the cost of irregular access), which the
// paper treats as a last resort; splitting can be disabled to prove that
// the paper's experiments never need it.
//
// To promote address regularity across loop iterations, an allocation can
// name a preferred address (where the previous iteration of the same datum
// lived); the allocator honors it when that exact region is free.
//
// Objects are identified by caller-chosen integer handles, so the
// allocation replay never hashes or builds a string on its hot path;
// names are only rendered, through SetNames, for error messages and
// String.
package alloc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cds/internal/scherr"
)

// Dir selects which end of the free space first-fit scans from.
type Dir int

const (
	// FromTop serves the request from the highest-addressed fitting
	// free block, at that block's top. The paper uses it for input data
	// and shared objects.
	FromTop Dir = iota
	// FromBottom serves from the lowest-addressed fitting free block,
	// at that block's bottom. The paper uses it for results.
	FromBottom
)

func (d Dir) String() string {
	if d == FromTop {
		return "top"
	}
	return "bottom"
}

// Extent is a contiguous byte range [Addr, Addr+Len).
type Extent struct {
	Addr, Len int
}

// End returns the first address past the extent.
func (e Extent) End() int { return e.Addr + e.Len }

// Handle identifies an object in one FB. Callers choose handles; they
// must be non-negative, and a dense range is cheapest because the live
// set is indexed by handle.
type Handle int32

// Placement records where an object lives. Objects normally occupy one
// extent, held inline so a non-split placement allocates nothing; a split
// object occupies several, in ascending address order.
type Placement struct {
	Handle Handle
	first  Extent   // the lowest-addressed extent
	rest   []Extent // a split object's further extents, ascending; nil otherwise
}

// Extents returns a copy of the placement's extents in ascending address
// order.
func (p Placement) Extents() []Extent {
	return append([]Extent{p.first}, p.rest...)
}

// Bytes returns the total placed size.
func (p Placement) Bytes() int {
	n := p.first.Len
	for _, e := range p.rest {
		n += e.Len
	}
	return n
}

// Split reports whether the object was split across free blocks.
func (p Placement) Split() bool { return len(p.rest) > 0 }

// Addr returns the address of the first extent (the canonical address used
// for regularity across iterations).
func (p Placement) Addr() int { return p.first.Addr }

// FitPolicy selects which free block serves a request that fits several.
type FitPolicy int

const (
	// FirstFit takes the first fitting block in scan order (the paper's
	// choice: cheap and, with the two-sided placement discipline,
	// fragmentation-free on the paper's workloads).
	FirstFit FitPolicy = iota
	// BestFit takes the smallest fitting block.
	BestFit
	// WorstFit takes the largest fitting block.
	WorstFit
)

func (p FitPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	}
	return "fit(?)"
}

// ErrNoSpace is returned when the total free space cannot satisfy a
// request. It also matches scherr.ErrCapacity under errors.Is.
var ErrNoSpace = scherr.Sentinel(scherr.ErrCapacity, "alloc: insufficient free space")

// ErrWouldSplit is returned when the request only fits split across blocks
// but splitting is disabled. It also matches scherr.ErrCapacity.
var ErrWouldSplit = scherr.Sentinel(scherr.ErrCapacity, "alloc: request fits only when split, and splitting is disabled")

// FB is one Frame Buffer set under allocation. The zero value is unusable;
// use New.
type FB struct {
	size int
	free []Extent // sorted by Addr, coalesced, non-empty lengths
	// live holds the live placements in no particular order; slot[h]
	// is handle h's index in live plus one, 0 when h is not placed.
	live       []Placement
	slot       []int32
	names      func(Handle) string
	occupied   []Extent // CheckInvariants' scratch
	allowSplit bool
	policy     FitPolicy

	// Stats accumulated since New/Reset.
	peakUsed   int
	used       int
	splitCount int
	allocCount int
}

// New returns an empty Frame Buffer set allocator of the given size in
// bytes. allowSplit enables last-resort splitting across free blocks.
func New(size int, allowSplit bool) *FB {
	if size <= 0 {
		panic(fmt.Sprintf("alloc: non-positive FB size %d", size))
	}
	// The free list rarely exceeds a handful of blocks (two-sided
	// placement keeps fragmentation low); preallocating its capacity
	// keeps steady-state carve/insert churn allocation-free.
	free := make([]Extent, 1, 8)
	free[0] = Extent{Addr: 0, Len: size}
	return &FB{
		size:       size,
		free:       free,
		allowSplit: allowSplit,
	}
}

// SetNames sets how handles are named in errors, Live and String. The
// default renders the handle number.
func (fb *FB) SetNames(names func(Handle) string) { fb.names = names }

// name renders a handle for messages.
func (fb *FB) name(h Handle) string {
	if fb.names != nil {
		return fb.names(h)
	}
	return strconv.Itoa(int(h))
}

// SetFitPolicy changes the block-selection policy (FirstFit by default).
// Intended for the fit-policy ablation; call it before any allocation.
func (fb *FB) SetFitPolicy(p FitPolicy) { fb.policy = p }

// Size returns the FB set capacity in bytes.
func (fb *FB) Size() int { return fb.size }

// Used returns the currently occupied bytes.
func (fb *FB) Used() int { return fb.used }

// Free returns the currently free bytes.
func (fb *FB) Free() int { return fb.size - fb.used }

// PeakUsed returns the maximum occupancy observed since New or Reset.
func (fb *FB) PeakUsed() int { return fb.peakUsed }

// Splits returns how many allocations had to be split so far.
func (fb *FB) Splits() int { return fb.splitCount }

// Allocs returns how many allocations were served so far.
func (fb *FB) Allocs() int { return fb.allocCount }

// FreeBlocks returns a copy of the free list (the paper's FB_list),
// ascending by address.
func (fb *FB) FreeBlocks() []Extent {
	out := make([]Extent, len(fb.free))
	copy(out, fb.free)
	return out
}

// LargestFree returns the size of the largest free block.
func (fb *FB) LargestFree() int {
	max := 0
	for _, e := range fb.free {
		if e.Len > max {
			max = e.Len
		}
	}
	return max
}

// Lookup returns the placement of a live object.
func (fb *FB) Lookup(h Handle) (Placement, bool) {
	if h < 0 || int(h) >= len(fb.slot) || fb.slot[h] == 0 {
		return Placement{}, false
	}
	return fb.live[fb.slot[h]-1], true
}

// Live returns the names of all live objects, sorted.
func (fb *FB) Live() []string {
	names := make([]string, 0, len(fb.live))
	for _, p := range fb.live {
		names = append(names, fb.name(p.Handle))
	}
	sort.Strings(names)
	return names
}

// Reset empties the FB and clears statistics. The free list's and the
// live set's backing arrays are reused, so per-sweep-point FB churn
// (Reset between points) does not allocate.
func (fb *FB) Reset() {
	fb.free = append(fb.free[:0], Extent{Addr: 0, Len: fb.size})
	fb.live = fb.live[:0]
	clear(fb.slot)
	fb.used, fb.peakUsed, fb.splitCount, fb.allocCount = 0, 0, 0, 0
}

// Alloc places a new object of the given size using first-fit from the
// chosen direction. If preferAddr is >= 0 and the exact region
// [preferAddr, preferAddr+size) is free, the object is placed there to
// keep iteration-to-iteration addresses regular.
func (fb *FB) Alloc(h Handle, size int, dir Dir, preferAddr int) (Placement, error) {
	if h < 0 {
		return Placement{}, fmt.Errorf("alloc: negative handle %d", h)
	}
	if size <= 0 {
		return Placement{}, fmt.Errorf("alloc: non-positive size %d for %q", size, fb.name(h))
	}
	if _, dup := fb.Lookup(h); dup {
		return Placement{}, fmt.Errorf("alloc: %q is already placed", fb.name(h))
	}
	if size > fb.Free() {
		return Placement{}, fmt.Errorf("alloc: %q needs %d bytes, %d free: %w", fb.name(h), size, fb.Free(), ErrNoSpace)
	}

	p := Placement{Handle: h}
	if preferAddr >= 0 && fb.regionFree(preferAddr, size) {
		p.first = Extent{Addr: preferAddr, Len: size}
	} else if e, ok := fb.firstFit(size, dir); ok {
		p.first = e
	} else {
		if !fb.allowSplit {
			return Placement{}, fmt.Errorf("alloc: %q (%d bytes, largest free %d): %w",
				fb.name(h), size, fb.LargestFree(), ErrWouldSplit)
		}
		extents := fb.splitFit(size, dir)
		p.first, p.rest = extents[0], extents[1:]
		fb.splitCount++
	}
	fb.carve(p.first)
	for _, e := range p.rest {
		fb.carve(e)
	}
	if int(h) >= len(fb.slot) {
		fb.slot = append(fb.slot, make([]int32, int(h)+1-len(fb.slot))...)
	}
	fb.live = append(fb.live, p)
	fb.slot[h] = int32(len(fb.live))
	fb.used += size
	fb.allocCount++
	if fb.used > fb.peakUsed {
		fb.peakUsed = fb.used
	}
	return p, nil
}

// Release frees a live object and coalesces the free list (the paper's
// release(c,k,iter)). Releasing an unknown name is an error: the
// schedulers must have perfectly matched lifetimes.
func (fb *FB) Release(h Handle) error {
	p, ok := fb.Lookup(h)
	if !ok {
		return fmt.Errorf("alloc: release of %q which is not placed", fb.name(h))
	}
	// Swap-remove: the last live placement takes h's index.
	i, last := fb.slot[h]-1, len(fb.live)-1
	fb.live[i] = fb.live[last]
	fb.slot[fb.live[i].Handle] = i + 1
	fb.live = fb.live[:last]
	fb.slot[h] = 0
	fb.insertFree(p.first)
	for _, e := range p.rest {
		fb.insertFree(e)
	}
	fb.used -= p.Bytes()
	return nil
}

// regionFree reports whether [addr, addr+size) lies entirely inside one
// free block. The free list is sorted by address, so the only block that
// can contain addr is the last one starting at or before it.
func (fb *FB) regionFree(addr, size int) bool {
	i := sort.Search(len(fb.free), func(i int) bool { return fb.free[i].Addr > addr }) - 1
	return i >= 0 && addr+size <= fb.free[i].End()
}

// firstFit finds a free block that can hold size whole under the active
// fit policy, scanning in the requested direction, and returns the extent
// to occupy.
func (fb *FB) firstFit(size int, dir Dir) (Extent, bool) {
	best := -1
	if fb.policy == FirstFit {
		// Stop at the first fitting block in scan direction.
		if dir == FromBottom {
			for i := 0; i < len(fb.free); i++ {
				if fb.free[i].Len >= size {
					best = i
					break
				}
			}
		} else {
			for i := len(fb.free) - 1; i >= 0; i-- {
				if fb.free[i].Len >= size {
					best = i
					break
				}
			}
		}
	} else {
		// Best/worst fit scan every block; the scan direction breaks
		// ties (strict improvement keeps the first seen).
		for j := 0; j < len(fb.free); j++ {
			i := j
			if dir == FromTop {
				i = len(fb.free) - 1 - j
			}
			l := fb.free[i].Len
			if l < size {
				continue
			}
			if best < 0 ||
				(fb.policy == BestFit && l < fb.free[best].Len) ||
				(fb.policy == WorstFit && l > fb.free[best].Len) {
				best = i
			}
		}
	}
	if best < 0 {
		return Extent{}, false
	}
	e := fb.free[best]
	if dir == FromBottom {
		return Extent{Addr: e.Addr, Len: size}, true
	}
	return Extent{Addr: e.End() - size, Len: size}, true
}

// splitFit gathers extents from successive free blocks (largest-address
// first for FromTop, lowest first for FromBottom) until size is covered.
// The caller guarantees total free space suffices.
func (fb *FB) splitFit(size int, dir Dir) []Extent {
	var extents []Extent
	remaining := size
	if dir == FromBottom {
		for _, e := range fb.free {
			if remaining == 0 {
				break
			}
			take := e.Len
			if take > remaining {
				take = remaining
			}
			extents = append(extents, Extent{Addr: e.Addr, Len: take})
			remaining -= take
		}
	} else {
		for i := len(fb.free) - 1; i >= 0; i-- {
			if remaining == 0 {
				break
			}
			e := fb.free[i]
			take := e.Len
			if take > remaining {
				take = remaining
			}
			extents = append(extents, Extent{Addr: e.End() - take, Len: take})
			remaining -= take
		}
		// Keep extents in ascending address order.
		sort.Slice(extents, func(i, j int) bool { return extents[i].Addr < extents[j].Addr })
	}
	if remaining != 0 {
		panic("alloc: splitFit called without enough total free space")
	}
	return extents
}

// carve removes the (guaranteed free) extent from the free list. The
// containing block is found by binary search and the list is spliced in
// place: no allocation unless a middle carve splits one block into two
// past the list's capacity.
func (fb *FB) carve(x Extent) {
	i := sort.Search(len(fb.free), func(i int) bool { return fb.free[i].Addr > x.Addr }) - 1
	if i < 0 || x.End() > fb.free[i].End() {
		panic(fmt.Sprintf("alloc: carve of non-free extent %+v (free list %+v)", x, fb.free))
	}
	e := fb.free[i]
	headLen := x.Addr - e.Addr
	tailLen := e.End() - x.End()
	switch {
	case headLen > 0 && tailLen > 0:
		// Middle carve: the block splits in two.
		fb.free[i] = Extent{Addr: e.Addr, Len: headLen}
		fb.free = append(fb.free, Extent{})
		copy(fb.free[i+2:], fb.free[i+1:])
		fb.free[i+1] = Extent{Addr: x.End(), Len: tailLen}
	case headLen > 0:
		fb.free[i] = Extent{Addr: e.Addr, Len: headLen}
	case tailLen > 0:
		fb.free[i] = Extent{Addr: x.End(), Len: tailLen}
	default:
		fb.free = append(fb.free[:i], fb.free[i+1:]...)
	}
}

// insertFree adds an extent to the free list, keeping it sorted and
// coalesced.
func (fb *FB) insertFree(x Extent) {
	i := sort.Search(len(fb.free), func(i int) bool { return fb.free[i].Addr >= x.Addr })
	fb.free = append(fb.free, Extent{})
	copy(fb.free[i+1:], fb.free[i:])
	fb.free[i] = x
	// Coalesce with neighbors.
	if i+1 < len(fb.free) && fb.free[i].End() == fb.free[i+1].Addr {
		fb.free[i].Len += fb.free[i+1].Len
		fb.free = append(fb.free[:i+1], fb.free[i+2:]...)
	}
	if i > 0 && fb.free[i-1].End() == fb.free[i].Addr {
		fb.free[i-1].Len += fb.free[i].Len
		fb.free = append(fb.free[:i], fb.free[i+1:]...)
	}
}

// CheckInvariants verifies internal consistency: free list sorted,
// coalesced, in bounds, disjoint from live placements, and accounting
// matches. Intended for tests and the replay checker.
func (fb *FB) CheckInvariants() error {
	freeSum := 0
	for i, e := range fb.free {
		if e.Len <= 0 {
			return fmt.Errorf("alloc: empty free extent %+v", e)
		}
		if e.Addr < 0 || e.End() > fb.size {
			return fmt.Errorf("alloc: free extent %+v out of bounds", e)
		}
		if i > 0 {
			prev := fb.free[i-1]
			if prev.End() > e.Addr {
				return fmt.Errorf("alloc: free list unsorted/overlapping at %d", i)
			}
			if prev.End() == e.Addr {
				return fmt.Errorf("alloc: free list not coalesced at %d", i)
			}
		}
		freeSum += e.Len
	}
	liveSum := 0
	occupied := fb.occupied[:0]
	for _, p := range fb.live {
		start := len(occupied)
		occupied = append(append(occupied, p.first), p.rest...)
		for _, e := range occupied[start:] {
			if e.Len <= 0 || e.Addr < 0 || e.End() > fb.size {
				return fmt.Errorf("alloc: live extent %+v of %q out of bounds", e, fb.name(p.Handle))
			}
			liveSum += e.Len
		}
	}
	fb.occupied = occupied
	slices.SortFunc(occupied, func(a, b Extent) int { return cmp.Compare(a.Addr, b.Addr) })
	for i := 1; i < len(occupied); i++ {
		if occupied[i-1].End() > occupied[i].Addr {
			return fmt.Errorf("alloc: live extents overlap: %+v and %+v", occupied[i-1], occupied[i])
		}
	}
	// Free and live extents must not overlap.
	for _, f := range fb.free {
		for _, o := range occupied {
			if f.Addr < o.End() && o.Addr < f.End() {
				return fmt.Errorf("alloc: free %+v overlaps live %+v", f, o)
			}
		}
	}
	if liveSum != fb.used {
		return fmt.Errorf("alloc: used=%d but live extents sum to %d", fb.used, liveSum)
	}
	if freeSum+liveSum != fb.size {
		return fmt.Errorf("alloc: free(%d)+live(%d) != size(%d)", freeSum, liveSum, fb.size)
	}
	return nil
}

// String renders a compact occupancy map, useful for reproducing the
// paper's Figure 5 timelines.
func (fb *FB) String() string {
	type seg struct {
		e    Extent
		name string
	}
	var segs []seg
	for _, p := range fb.live {
		for _, e := range p.Extents() {
			segs = append(segs, seg{e, fb.name(p.Handle)})
		}
	}
	for _, e := range fb.free {
		segs = append(segs, seg{e, "-"})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].e.Addr < segs[j].e.Addr })
	var b strings.Builder
	for i, s := range segs {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%d:%s[%d]", s.e.Addr, s.name, s.e.Len)
	}
	return b.String()
}
