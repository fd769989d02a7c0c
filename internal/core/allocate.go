package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"cds/internal/alloc"
	"cds/internal/app"
	"cds/internal/extract"
)

// AllocOp is the kind of one allocation-trace event.
type AllocOp int

const (
	// OpAlloc places an object instance in the Frame Buffer.
	OpAlloc AllocOp = iota
	// OpRelease frees an object instance.
	OpRelease
)

func (o AllocOp) String() string {
	if o == OpAlloc {
		return "alloc"
	}
	return "release"
}

// AllocEvent is one step of the Frame Buffer allocation replay. The
// sequence of events reproduces the paper's Figure 5 timelines.
type AllocEvent struct {
	Op  AllocOp
	Set int
	// Object is the placed instance name ("<datum>#i<iter>", the
	// datum's copy for one iteration of the visit's block); Datum is the
	// underlying application datum, set on allocations only.
	Object string
	Datum  string
	// Addr is the first extent's address; Bytes the full size; Split
	// whether the instance had to be split across free blocks.
	Addr, Bytes int
	Split       bool
	// Cluster, Block, Iter locate the event in the schedule. Iter is -1
	// for the pre-visit input loading phase.
	Cluster, Block, Iter int
	// Kernel is the kernel index (into App.Kernels) whose execution
	// step this event belongs to, or -1 for pre-visit loading and
	// end-of-visit releases.
	Kernel int
}

// AllocationReport summarizes the full allocation replay of a schedule.
type AllocationReport struct {
	// Events lists every alloc/release in replay order. It is nil in
	// reports from AllocateSummary.
	Events []AllocEvent
	// PeakUsed gives the high-water occupancy of each FB set.
	PeakUsed map[int]int
	// Splits counts instances that had to be split across free blocks
	// (the paper reports zero for all its experiments).
	Splits int
	// Regular reports whether every object instance kept the same
	// address across all RF blocks (the paper's regularity goal).
	Regular bool
	// IrregularObjects lists the instances that moved between blocks.
	IrregularObjects []string
}

// instance names the per-iteration copy of a datum within a block.
func instance(datum string, iter int) string {
	return datum + "#i" + strconv.Itoa(iter)
}

// AllocOptions tunes the allocation replay; the zero value is the paper's
// configuration except for splitting, which Allocate exposes directly.
type AllocOptions struct {
	// AllowSplit enables the paper's last-resort splitting across free
	// blocks.
	AllowSplit bool
	// FitPolicy selects the free-block choice (first-fit by default;
	// best/worst-fit exist for the ablation).
	FitPolicy alloc.FitPolicy
	// OneSided disables the paper's two-sided placement: results are
	// allocated from the top like everything else. Exists to measure
	// what the data-top/results-bottom discipline buys.
	OneSided bool
}

// Allocate replays the schedule through the Frame Buffer allocator of
// section 5 (first-fit, shared objects and input data from the top,
// results from the bottom, release at last use, address regularity across
// blocks) and verifies that every visit's working set actually fits.
// allowSplit enables the paper's last-resort splitting. The report
// carries the full event log; AllocateSummary is the same replay
// without it.
func Allocate(s *Schedule, allowSplit bool) (*AllocationReport, error) {
	return AllocateWithOptions(s, AllocOptions{AllowSplit: allowSplit})
}

// AllocateWithOptions is Allocate with an explicit allocator policy.
func AllocateWithOptions(s *Schedule, opts AllocOptions) (*AllocationReport, error) {
	return replay(s, opts, true)
}

// AllocateSummary is Allocate for callers that need only the verdict:
// it runs the same replay with every check, and fails exactly when
// Allocate fails with the same error, but builds no event log. The
// report carries PeakUsed, Splits, Regular and IrregularObjects, with
// Events nil. The comparison pipeline uses it; the readers of the log
// (codegen, verify, the functional machine, the CLI's Figure 5 views)
// call Allocate.
func AllocateSummary(s *Schedule, allowSplit bool) (*AllocationReport, error) {
	return replay(s, AllocOptions{AllowSplit: allowSplit}, false)
}

// The replay works on interned integers, not instance names. A datum is
// its app ID; the copy for iteration i of a visit is the FB handle
// id*stride+i, where stride is the largest visit iteration count. Each
// cluster's walk — which data it places in which phase, which it releases
// where — is resolved to ID lists once per replay (clusterPlan) and then
// walked by every visit of the cluster. Names are built only for events,
// error messages and IrregularObjects.

// slotRef is one datum a cluster places, with its preference slot: the
// cluster remembers, per slot and iteration, the address the previous
// block used, so the next block can ask for it again. retained marks
// outputs the cluster keeps for later clusters (placed from the top).
type slotRef struct {
	id, slot int32
	retained bool
}

// kernelStep is phase 3 for one kernel of a cluster.
type kernelStep struct {
	kernel   int
	streamed []slotRef // streamed inputs, placed just before the kernel
	outputs  []slotRef
	// release lists what in-place release frees after the kernel: its
	// d_j, then the intermediates whose last consumer it is.
	release []int32
}

// retainedEnd is a retained object whose span ends at a cluster: it is
// released from its home set's FB, which may not be the cluster's.
type retainedEnd struct {
	set int
	id  int32
}

// clusterPlan is one cluster's allocation walk over datum IDs.
type clusterPlan struct {
	cluster app.Cluster
	shared  []slotRef // phase 1: retained data it loads, farthest-reaching first
	inputs  []slotRef // phase 2: per-kernel inputs, last kernel first
	kernels []kernelStep
	// Phase 4, per iteration: persistent results leave once stored;
	// without in-place release every d_j and intermediate leaves too;
	// then the retained objects whose span ends here.
	stored []int32
	dead   []int32
	ending []retainedEnd
	// prefer is the cluster's preferred address per (slot, iteration),
	// plus one (0 = no earlier block placed it).
	prefer []int32
}

// replayer is the state of one allocation replay.
type replayer struct {
	s      *Schedule
	a      *app.App
	rep    *AllocationReport
	events bool
	stride int
	fbs    []*alloc.FB // by FB set; nil for sets no cluster uses
	plans  []clusterPlan

	// retIDs are the datum IDs of s.Retained. extra names the data a
	// hand-assembled schedule mentions that its app does not know; they
	// take the IDs after the app's.
	retIDs    []int32
	extra     []string
	names     []string // instance name cache by handle
	irregular []alloc.Handle

	// Plan-building scratch, indexed by datum ID.
	mark   []uint8
	slotOf []int32
}

// Per-cluster datum marks used while building a plan.
const (
	markPinned   uint8 = 1 << iota // retained on the cluster's set across it
	markRemote                     // read from another set's FB (cross-set)
	markResident                   // retained on the cluster's set at all
)

func replay(s *Schedule, opts AllocOptions, events bool) (*AllocationReport, error) {
	r := &replayer{
		s:      s,
		a:      s.P.App,
		rep:    &AllocationReport{PeakUsed: map[int]int{}, Regular: true},
		events: events,
		stride: 1,
	}
	for _, v := range s.Visits {
		r.stride = max(r.stride, v.Iters)
	}

	// One allocator per FB set.
	for _, c := range s.P.Clusters {
		for c.Set >= len(r.fbs) {
			r.fbs = append(r.fbs, nil)
		}
		if r.fbs[c.Set] == nil {
			fb := alloc.New(s.Arch.FBSetBytes, opts.AllowSplit)
			fb.SetFitPolicy(opts.FitPolicy)
			fb.SetNames(r.instanceName)
			r.fbs[c.Set] = fb
		}
	}
	r.retIDs = make([]int32, len(s.Retained))
	for i := range s.Retained {
		r.retIDs[i] = r.id(s.Retained[i].Name)
	}
	r.plans = make([]clusterPlan, len(s.Info.Clusters))
	for i := range s.Info.Clusters {
		r.plan(&r.plans[i], &s.Info.Clusters[i])
	}
	if events {
		// Every placement is released again, so twice the placements
		// bounds the log (streamed inputs a kernel finds already placed
		// are skipped).
		nEvents := 0
		for _, v := range s.Visits {
			nEvents += 2 * v.Iters * r.plans[v.Cluster].placements()
		}
		r.rep.Events = make([]AllocEvent, 0, nEvents)
	}

	resultDir := alloc.FromBottom
	if opts.OneSided {
		resultDir = alloc.FromTop
	}

	for _, v := range s.Visits {
		cp := &r.plans[v.Cluster]
		c := cp.cluster
		fb := r.fbs[c.Set]
		ev := AllocEvent{Cluster: c.Index, Block: v.Block, Iter: -1, Kernel: -1}

		// Phase 1: shared data this cluster loads, farthest-reaching
		// first (Figure 4: for v = last cluster down to c+2).
		// Phase 2: per-kernel input data, last kernel first (Figure 4:
		// for k = last kernel down to first). Retained objects are
		// skipped (loaded in phase 1 by this cluster or still resident
		// from an earlier cluster of the block), and streamed inputs
		// are deferred to phase 3.
		for _, phase := range [2][]slotRef{cp.shared, cp.inputs} {
			for _, d := range phase {
				for iter := 0; iter < v.Iters; iter++ {
					if err := r.place(fb, cp, d, iter, alloc.FromTop, &ev); err != nil {
						return r.rep, err
					}
				}
			}
		}

		// Phase 3: execution. The paper's Figure 4 pseudo-code walks
		// iteration-major, but its execution model (Figure 3's loop
		// fission) runs each kernel for all RF iterations back to
		// back; releases must follow the EXECUTION order or reused
		// space would be overwritten while a later kernel still needs
		// it. We therefore walk kernel-major: for k, for iter.
		for _, k := range cp.kernels {
			for iter := 0; iter < v.Iters; iter++ {
				ev := ev
				ev.Iter = iter
				ev.Kernel = k.kernel
				// Streamed inputs arrive just before their first
				// consuming kernel of this iteration.
				for _, d := range k.streamed {
					if _, already := fb.Lookup(r.handle(d.id, iter)); already {
						continue
					}
					if err := r.place(fb, cp, d, iter, alloc.FromTop, &ev); err != nil {
						return r.rep, err
					}
				}
				for _, d := range k.outputs {
					dir := resultDir
					if d.retained {
						// Shared results go to the top: they are
						// data for the next clusters.
						dir = alloc.FromTop
					}
					if err := r.place(fb, cp, d, iter, dir, &ev); err != nil {
						return r.rep, err
					}
				}
				if !r.s.InPlaceRelease {
					continue
				}
				for _, id := range k.release {
					if err := r.free(fb, c.Set, id, iter, &ev); err != nil {
						return r.rep, err
					}
				}
			}
		}

		// Phase 4: end of visit.
		for iter := 0; iter < v.Iters; iter++ {
			ev := ev
			ev.Iter = iter
			for _, id := range cp.stored {
				if err := r.free(fb, c.Set, id, iter, &ev); err != nil {
					return r.rep, err
				}
			}
			if !r.s.InPlaceRelease {
				for _, id := range cp.dead {
					if err := r.free(fb, c.Set, id, iter, &ev); err != nil {
						return r.rep, err
					}
				}
			}
			for _, e := range cp.ending {
				if err := r.free(r.fbs[e.set], e.set, e.id, iter, &ev); err != nil {
					return r.rep, err
				}
			}
		}

		if err := fb.CheckInvariants(); err != nil {
			return r.rep, fmt.Errorf("core: allocator invariants after cluster %d block %d: %w",
				c.Index, v.Block, err)
		}
	}

	// Every FB set must be empty at the end: all lifetimes matched.
	for set, fb := range r.fbs {
		if fb == nil {
			continue
		}
		if fb.Used() != 0 {
			return r.rep, fmt.Errorf("core: %d bytes leaked in FB set %d: %v", fb.Used(), set, fb.Live())
		}
		r.rep.PeakUsed[set] = fb.PeakUsed()
		r.rep.Splits += fb.Splits()
	}
	for _, h := range r.irregular {
		r.rep.IrregularObjects = append(r.rep.IrregularObjects, r.instanceName(h))
	}
	sort.Strings(r.rep.IrregularObjects)
	r.rep.IrregularObjects = slices.Compact(r.rep.IrregularObjects)
	r.rep.Regular = len(r.rep.IrregularObjects) == 0
	return r.rep, nil
}

// place allocates iteration iter's copy of d in the cluster's FB,
// preferring the address the previous block gave it. at locates the
// step in the schedule.
func (r *replayer) place(fb *alloc.FB, cp *clusterPlan, d slotRef, iter int, dir alloc.Dir, at *AllocEvent) error {
	h := r.handle(d.id, iter)
	pref := &cp.prefer[int(d.slot)*r.stride+iter]
	want := int(*pref) - 1
	p, err := fb.Alloc(h, r.size(d.id), dir, want)
	if err != nil {
		return fmt.Errorf("core: allocation replay failed for %s (cluster %d block %d): %w",
			r.instanceName(h), at.Cluster, at.Block, err)
	}
	if want >= 0 && p.Addr() != want {
		r.irregular = append(r.irregular, h)
	}
	*pref = int32(p.Addr()) + 1
	if r.events {
		ev := *at
		ev.Op = OpAlloc
		ev.Set = cp.cluster.Set
		ev.Object = r.instanceName(h)
		ev.Datum = r.datumName(d.id)
		ev.Addr = p.Addr()
		ev.Bytes = p.Bytes()
		ev.Split = p.Split()
		r.rep.Events = append(r.rep.Events, ev)
	}
	return nil
}

// free releases iteration iter's copy of datum id from the given set.
func (r *replayer) free(fb *alloc.FB, set int, id int32, iter int, at *AllocEvent) error {
	h := r.handle(id, iter)
	p, ok := fb.Lookup(h)
	if !ok {
		return fmt.Errorf("core: allocation replay: release of absent %s (cluster %d block %d)",
			r.instanceName(h), at.Cluster, at.Block)
	}
	if err := fb.Release(h); err != nil {
		return err
	}
	if r.events {
		ev := *at
		ev.Op = OpRelease
		ev.Set = set
		ev.Object = r.instanceName(h)
		ev.Addr = p.Addr()
		ev.Bytes = p.Bytes()
		r.rep.Events = append(r.rep.Events, ev)
	}
	return nil
}

func (r *replayer) handle(id int32, iter int) alloc.Handle {
	return alloc.Handle(int(id)*r.stride + iter)
}

// instanceName renders a handle as "<datum>#i<iter>", once per handle.
func (r *replayer) instanceName(h alloc.Handle) string {
	if int(h) >= len(r.names) {
		r.names = append(r.names, make([]string, int(h)+1-len(r.names))...)
	}
	if r.names[h] == "" {
		r.names[h] = instance(r.datumName(int32(int(h)/r.stride)), int(h)%r.stride)
	}
	return r.names[h]
}

func (r *replayer) datumName(id int32) string {
	if n := r.a.NumData(); int(id) >= n {
		return r.extra[int(id)-n]
	}
	return r.a.Data[id].Name
}

// size is the per-iteration size of a datum; data the app does not know
// have size 0, which the allocator rejects.
func (r *replayer) size(id int32) int {
	if int(id) >= r.a.NumData() {
		return 0
	}
	return r.a.Data[id].Size
}

func (r *replayer) streamed(id int32) bool {
	return int(id) < r.a.NumData() && r.a.Data[id].Streamed
}

// id interns a datum name.
func (r *replayer) id(name string) int32 {
	id := r.a.DatumID(name)
	if id < 0 {
		id = slices.Index(r.extra, name)
		if id < 0 {
			id = len(r.extra)
			r.extra = append(r.extra, name)
		}
		id += r.a.NumData()
	}
	for id >= len(r.mark) {
		r.mark = append(r.mark, 0)
		r.slotOf = append(r.slotOf, -1)
	}
	return int32(id)
}

// placements counts the objects one iteration of a visit places (an
// upper bound: a streamed input two kernels read is placed once).
func (cp *clusterPlan) placements() int {
	n := len(cp.shared) + len(cp.inputs)
	for _, k := range cp.kernels {
		n += len(k.streamed) + len(k.outputs)
	}
	return n
}

// plan resolves one cluster's allocation walk to datum IDs.
func (r *replayer) plan(cp *clusterPlan, ci *extract.ClusterInfo) {
	s, a := r.s, r.a
	c := ci.Cluster
	cp.cluster = c

	// Mark the retained objects: pinned on this set across the cluster,
	// read remotely from another set, or retained on this set at all
	// (cross-set objects count for every set).
	var touched []int32
	for i := range s.Retained {
		rt, id := &s.Retained[i], r.retIDs[i]
		m := r.mark[id]
		if rt.Set == c.Set || rt.CrossSet {
			m |= markResident
		}
		if rt.From <= c.Index && c.Index <= rt.To {
			if rt.Set == c.Set {
				m |= markPinned
			} else if rt.CrossSet {
				m |= markRemote
			}
		}
		if m != r.mark[id] && r.mark[id] == 0 {
			touched = append(touched, id)
		}
		r.mark[id] = m
	}
	var slotted []int32
	ref := func(id int32) slotRef {
		if r.slotOf[id] < 0 {
			r.slotOf[id] = int32(len(slotted))
			slotted = append(slotted, id)
		}
		return slotRef{id: id, slot: r.slotOf[id]}
	}
	kept := func(id int32) bool { return r.mark[id]&(markPinned|markRemote) == 0 }

	// Phase 1, ordered by span end (farthest first), then name.
	var shared []int // indexes into s.Retained
	for i := range s.Retained {
		if rt := &s.Retained[i]; rt.Kind == RetainedData && rt.Set == c.Set && rt.From == c.Index {
			shared = append(shared, i)
		}
	}
	sort.Slice(shared, func(i, j int) bool {
		a, b := &s.Retained[shared[i]], &s.Retained[shared[j]]
		if a.To != b.To {
			return a.To > b.To
		}
		return a.Name < b.Name
	})
	for _, i := range shared {
		cp.shared = append(cp.shared, ref(r.retIDs[i]))
	}

	// Phase 2.
	for i := len(ci.PerKernel) - 1; i >= 0; i-- {
		for _, name := range ci.PerKernel[i].D {
			id := r.id(name)
			if r.mark[id]&markResident != 0 || r.streamed(id) {
				continue
			}
			cp.inputs = append(cp.inputs, ref(id))
		}
	}

	// releaseAfter[k] lists, sorted, the intermediates whose last
	// consumer is kernel k.
	releaseAfter := map[int][]string{}
	for _, kc := range ci.PerKernel {
		for out, t := range kc.R {
			releaseAfter[t] = append(releaseAfter[t], out)
		}
	}
	for _, names := range releaseAfter {
		sort.Strings(names)
	}

	// Phase 3.
	cp.kernels = make([]kernelStep, len(ci.PerKernel))
	for i, kc := range ci.PerKernel {
		k := &cp.kernels[i]
		k.kernel = kc.Kernel
		for _, name := range a.Kernels[kc.Kernel].Inputs {
			if id := r.id(name); r.streamed(id) && r.mark[id]&markRemote == 0 {
				k.streamed = append(k.streamed, ref(id))
			}
		}
		for _, name := range a.Kernels[kc.Kernel].Outputs {
			d := ref(r.id(name))
			d.retained = r.mark[d.id]&markResident != 0
			k.outputs = append(k.outputs, d)
		}
		for _, names := range [2][]string{kc.D, releaseAfter[kc.Kernel]} {
			for _, name := range names {
				if id := r.id(name); kept(id) {
					k.release = append(k.release, id)
				}
			}
		}
	}

	// Phase 4.
	for _, name := range ci.PersistentOut {
		if id := r.id(name); kept(id) {
			cp.stored = append(cp.stored, id)
		}
	}
	for _, kc := range ci.PerKernel {
		for _, name := range kc.D {
			if id := r.id(name); kept(id) {
				cp.dead = append(cp.dead, id)
			}
		}
		intermediates := make([]string, 0, len(kc.R))
		for out := range kc.R {
			intermediates = append(intermediates, out)
		}
		sort.Strings(intermediates)
		for _, name := range intermediates {
			if id := r.id(name); kept(id) {
				cp.dead = append(cp.dead, id)
			}
		}
	}
	for i := range s.Retained {
		if rt := &s.Retained[i]; rt.To == c.Index && (rt.Set == c.Set || rt.CrossSet) {
			cp.ending = append(cp.ending, retainedEnd{set: rt.Set, id: r.retIDs[i]})
		}
	}

	cp.prefer = make([]int32, len(slotted)*r.stride)
	for _, id := range touched {
		r.mark[id] = 0
	}
	for _, id := range slotted {
		r.slotOf[id] = -1
	}
}
