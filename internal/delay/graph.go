package delay

import (
	"nmostv/internal/cow"
	"nmostv/internal/netlist"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// graph is a flat, index-based snapshot of a finalized netlist: everything
// the edge builder reads, laid out as structure-of-arrays slices indexed by
// Node.Index / Transistor.Index. Shard rebuilds walk these packed arrays
// (and the CSR channel-terminal adjacency) instead of chasing Node.Terms /
// Node.Gates pointer slices, so the inner loops touch dense, cache-resident
// memory. The snapshot is read-only once built and is shared by every
// builder worker. Edges reference devices by stable netlist ID (graph.id),
// never by pointer, which keeps the model's edge array pointer-free.
type graph struct {
	vdd, gnd int32

	// Per node, indexed by Node.Index.
	flags       []netlist.Flag
	phase       []int32
	caps        []float64 // a flat copy of Model.Caps
	forcedState []uint8   // 0 free, 1 held high, 2 held low (case analysis)
	hasPullup   []bool    // node has an attached RolePullup device
	gateCnt     []int32   // number of devices gated by the node

	// CSR channel-terminal adjacency: the devices with a source/drain on
	// node i are termDev[termStart[i]:termStart[i+1]], in exactly the
	// order Finalize builds Node.Terms (device order; A then B when they
	// differ) so float accumulation order — and therefore every delay
	// bit — matches the pointer-based walk.
	termStart []int32
	termDev   []int32

	// Per device, indexed by Transistor.Index.
	kind  []netlist.Kind
	role  []netlist.Role
	flow  []netlist.FlowDir
	dgate []int32
	da    []int32
	db    []int32
	rEff  []float64 // DeviceR under the build's tech params
	gmask []uint8   // clockMask of the gate node
	off   []bool    // held non-conducting by case analysis
	id    []int64   // stable Transistor.ID, stamped into Edge.Via
}

// growSlice returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newGraph snapshots the netlist into reuse (which may be nil), returning
// the filled graph. caps is the per-node loading (Model.Caps); forced the
// resolved case-analysis constants.
func newGraph(nl *netlist.Netlist, p tech.Params, caps cow.Array[float64],
	forced map[*netlist.Node]bool, reuse *graph) *graph {
	g := reuse
	if g == nil {
		g = &graph{}
	}
	nn, nt := len(nl.Nodes), len(nl.Trans)
	g.vdd, g.gnd = int32(nl.VDD.Index), int32(nl.GND.Index)
	g.caps = growSlice(g.caps, nn)
	for c := range caps.NumChunks() {
		copy(g.caps[c<<cow.Shift:], caps.Chunk(c))
	}

	g.flags = growSlice(g.flags, nn)
	g.phase = growSlice(g.phase, nn)
	g.forcedState = growSlice(g.forcedState, nn)
	g.hasPullup = growSlice(g.hasPullup, nn)
	g.gateCnt = growSlice(g.gateCnt, nn)
	g.termStart = growSlice(g.termStart, nn+1)
	for i, n := range nl.Nodes {
		g.flags[i] = n.Flags
		g.phase[i] = int32(n.Phase)
		g.forcedState[i] = 0
		g.hasPullup[i] = false
		g.gateCnt[i] = 0
		g.termStart[i+1] = 0
	}
	g.termStart[0] = 0
	for n, v := range forced {
		if v {
			g.forcedState[n.Index] = 1
		} else {
			g.forcedState[n.Index] = 2
		}
	}

	g.kind = growSlice(g.kind, nt)
	g.role = growSlice(g.role, nt)
	g.flow = growSlice(g.flow, nt)
	g.dgate = growSlice(g.dgate, nt)
	g.da = growSlice(g.da, nt)
	g.db = growSlice(g.db, nt)
	g.rEff = growSlice(g.rEff, nt)
	g.gmask = growSlice(g.gmask, nt)
	g.off = growSlice(g.off, nt)
	g.id = growSlice(g.id, nt)
	for i, t := range nl.Trans {
		a, b, gt := int32(t.A.Index), int32(t.B.Index), int32(t.Gate.Index)
		g.kind[i] = t.Kind
		g.role[i] = t.Role
		g.flow[i] = t.Flow
		g.dgate[i], g.da[i], g.db[i] = gt, a, b
		g.rEff[i] = DeviceR(t, p)
		g.gmask[i] = clockMask(t.Gate)
		g.id[i] = t.ID
		g.off[i] = t.Kind == netlist.Enh && g.forcedState[gt] == 2
		if t.Role == netlist.RolePullup {
			g.hasPullup[a] = true
			g.hasPullup[b] = true
		}
		g.gateCnt[gt]++
		g.termStart[a+1]++
		if b != a {
			g.termStart[b+1]++
		}
	}
	for i := 0; i < nn; i++ {
		g.termStart[i+1] += g.termStart[i]
	}
	g.termDev = growSlice(g.termDev, int(g.termStart[nn]))
	// Fill using the start offsets as moving cursors, then shift them back.
	for i, t := range nl.Trans {
		a, b := int32(t.A.Index), int32(t.B.Index)
		g.termDev[g.termStart[a]] = int32(i)
		g.termStart[a]++
		if b != a {
			g.termDev[g.termStart[b]] = int32(i)
			g.termStart[b]++
		}
	}
	for i := nn; i > 0; i-- {
		g.termStart[i] = g.termStart[i-1]
	}
	g.termStart[0] = 0
	return g
}

// refresh patches a graph filled for the last build after a sized edit
// (device sizes and node capacitances only): the loading of the named
// loads becomes caps', and every device of the probed stages gets its
// resistance at its current size. A resized device belongs to the stage
// its terminals name, so that covers every resistance that can have
// moved; nothing else the builder reads depends on a size.
func (g *graph) refresh(st *stage.Result, probe, loads []int, caps *cow.Array[float64], p tech.Params) {
	for _, n := range loads {
		g.caps[n] = caps.At(n)
	}
	for _, si := range probe {
		for _, t := range st.Stages[si].Trans {
			g.rEff[t.Index] = DeviceR(t, p)
		}
	}
}

// other returns the channel terminal of device di opposite node n, which
// must be one of the device's terminals.
func (g *graph) other(di, n int32) int32 {
	if n == g.da[di] {
		return g.db[di]
	}
	return g.da[di]
}

// conductsToward reports whether signal may propagate through device di's
// channel toward dst (a channel terminal of di) under the assigned flow.
func (g *graph) conductsToward(di, dst int32) bool {
	switch g.flow[di] {
	case netlist.FlowAB:
		return dst == g.db[di]
	case netlist.FlowBA:
		return dst == g.da[di]
	default:
		return true
	}
}

func (g *graph) isSupply(n int32) bool { return g.flags[n]&netlist.FlagSupply != 0 }
