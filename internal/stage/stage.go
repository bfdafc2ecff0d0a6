// Package stage partitions a transistor netlist into stages: the
// channel-connected components that 1980s switch-level tools used as the
// unit of electrical analysis. Two transistors belong to the same stage
// when their channels share a non-supply node; the supplies (VDD, GND) act
// as cut points. A ratioed NAND gate is one stage; a pass-transistor chain
// between two gates is one stage; an entire precharged bus with all its
// drivers is one stage.
package stage

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nmostv/internal/cow"
	"nmostv/internal/netlist"
)

// Stage is one channel-connected component.
type Stage struct {
	// Index is the stage number (dense, deterministic: ordered by the
	// smallest transistor index in the stage).
	Index int
	// Trans is the stage's devices in netlist index order.
	Trans []*netlist.Transistor
	// Nodes is the stage's channel nodes (non-supply), in index order.
	Nodes []*netlist.Node
	// GateInputs is the distinct non-supply nodes gating the stage's
	// devices, in index order. These are the signal inputs of restoring
	// logic and the control inputs of pass devices.
	GateInputs []*netlist.Node
	// HasPullup reports whether any device connects the stage to VDD.
	HasPullup bool
	// HasPulldown reports whether any device connects the stage to GND.
	HasPulldown bool
}

// IsRestoring reports whether the stage can actively drive a node to a
// logic level (it touches at least one supply).
func (s *Stage) IsRestoring() bool { return s.HasPullup || s.HasPulldown }

// String summarizes the stage.
func (s *Stage) String() string {
	return fmt.Sprintf("stage %d: %d devices, %d nodes, %d gate inputs",
		s.Index, len(s.Trans), len(s.Nodes), len(s.GateInputs))
}

// Result is the full partition of a netlist.
type Result struct {
	// Stages lists every stage.
	Stages []*Stage
	// NodeStage maps each node index to the index of its (unique) owning
	// stage, -1 for supplies and nodes that touch no transistor channel.
	NodeStage []int32
	// TransStage maps each transistor index to its stage's index.
	TransStage []int32
}

// ByNode returns the stage owning node n's channel, nil if none (supplies
// and nodes that touch no transistor channel).
func (r *Result) ByNode(n *netlist.Node) *Stage {
	if n == nil || n.Index >= len(r.NodeStage) {
		return nil
	}
	si := r.NodeStage[n.Index]
	if si < 0 {
		return nil
	}
	return r.Stages[si]
}

// ByTrans returns the stage of transistor t, nil if t is not a member of
// the partitioned netlist.
func (r *Result) ByTrans(t *netlist.Transistor) *Stage {
	if t == nil || t.Index < 0 || t.Index >= len(r.TransStage) {
		return nil
	}
	return r.Stages[r.TransStage[t.Index]]
}

// Extract partitions the netlist. Finalize must have been called.
//
// The union-find runs over device indices with a single pass over the
// device array (firstDev remembers the first device seen on each channel
// node), so partitioning never walks the per-node Node.Terms pointer
// slices. Roots keep the smallest member index, which makes the first
// occurrence order of roots in device order identical to sorted root
// order — stages come out numbered exactly as the map-and-sort
// implementation this replaces produced them.
func Extract(nl *netlist.Netlist) *Result {
	nt := len(nl.Trans)
	nn := len(nl.Nodes)
	parent := make([]int32, nt)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // keep the smallest index as root for determinism
		}
	}

	firstDev := make([]int32, nn)
	for i := range firstDev {
		firstDev[i] = -1
	}
	for i, t := range nl.Trans {
		for _, term := range [2]*netlist.Node{t.A, t.B} {
			if term.IsSupply() {
				continue
			}
			if v := term.Index; firstDev[v] < 0 {
				firstDev[v] = int32(i)
			} else {
				union(firstDev[v], int32(i))
			}
		}
	}

	res := &Result{
		NodeStage:  make([]int32, nn),
		TransStage: make([]int32, nt),
	}
	for i := range res.NodeStage {
		res.NodeStage[i] = -1
	}
	// stageOf maps a component root to its stage index; gateMark dedupes
	// gate inputs per stage (a node may gate devices in many stages).
	stageOf := make([]int32, nt)
	for i := range stageOf {
		stageOf[i] = -1
	}
	gateMark := make([]int32, nn)
	for i := range gateMark {
		gateMark[i] = -1
	}

	// Pass 1: number the stages (first-device order, exactly as the
	// incremental append version did) and size every per-stage member
	// list, so pass 2 fills exact flat arrays — a handful of block
	// allocations instead of three growing slices per stage.
	var devCnt, nodeCnt, gateCnt []int32
	for i, t := range nl.Trans {
		r := find(int32(i))
		si := stageOf[r]
		if si < 0 {
			si = int32(len(devCnt))
			stageOf[r] = si
			devCnt = append(devCnt, 0)
			nodeCnt = append(nodeCnt, 0)
			gateCnt = append(gateCnt, 0)
		}
		res.TransStage[i] = si
		devCnt[si]++
		for _, term := range [2]*netlist.Node{t.A, t.B} {
			if term.IsSupply() {
				continue
			}
			if res.NodeStage[term.Index] != si {
				res.NodeStage[term.Index] = si
				nodeCnt[si]++
			}
		}
		if !t.Gate.IsSupply() && gateMark[t.Gate.Index] != si {
			gateMark[t.Gate.Index] = si
			gateCnt[si]++
		}
	}

	nc := int32(len(devCnt))
	stageSlab := make([]Stage, nc)
	res.Stages = make([]*Stage, nc)
	totNodes, totGates := int32(0), int32(0)
	for si := int32(0); si < nc; si++ {
		totNodes += nodeCnt[si]
		totGates += gateCnt[si]
	}
	transFlat := make([]*netlist.Transistor, nt)
	nodesFlat := make([]*netlist.Node, totNodes)
	gatesFlat := make([]*netlist.Node, totGates)
	var tp, np, gp int32
	for si := int32(0); si < nc; si++ {
		s := &stageSlab[si]
		s.Index = int(si)
		s.Trans = transFlat[tp : tp : tp+devCnt[si]]
		tp += devCnt[si]
		s.Nodes = nodesFlat[np : np : np+nodeCnt[si]]
		np += nodeCnt[si]
		s.GateInputs = gatesFlat[gp : gp : gp+gateCnt[si]]
		gp += gateCnt[si]
		res.Stages[si] = s
	}

	// Pass 2: fill. NodeStage already holds the final assignment, so node
	// dedup re-marks gateMark-style with an offset (si+nc is disjoint
	// from every pass-1 value); the appends land inside the carved flat
	// regions.
	nodeMark := make([]int32, nn)
	for i := range nodeMark {
		nodeMark[i] = -1
	}
	for i, t := range nl.Trans {
		si := res.TransStage[i]
		s := res.Stages[si]
		s.Trans = append(s.Trans, t)
		for _, term := range [2]*netlist.Node{t.A, t.B} {
			if term.IsSupply() {
				if term == nl.VDD {
					s.HasPullup = true
				} else {
					s.HasPulldown = true
				}
				continue
			}
			if nodeMark[term.Index] != si {
				nodeMark[term.Index] = si
				s.Nodes = append(s.Nodes, term)
			}
		}
		if !t.Gate.IsSupply() && gateMark[t.Gate.Index] != si+nc {
			gateMark[t.Gate.Index] = si + nc
			s.GateInputs = append(s.GateInputs, t.Gate)
		}
	}
	for _, s := range res.Stages {
		sortNodes(s.Nodes)
		sortNodes(s.GateInputs)
	}
	return res
}

func sortNodes(nodes []*netlist.Node) {
	// Generic, non-reflective sort: this runs once per stage, and a
	// million-device design has hundreds of thousands of stages.
	slices.SortFunc(nodes, func(a, b *netlist.Node) int { return a.Index - b.Index })
}

// Fingerprint hashes everything the delay model reads from this stage:
// the ordered device list (stable ID, kind, size, flow orientation, role,
// terminal node indices), each channel node's loading, flags, phase,
// case-analysis constant, and whether it fans out to any gate, and each
// gate input's clock/flag state. Two stages with equal fingerprints (and
// equal device-ID lists, which callers verify to rule out hash collisions)
// produce bit-identical timing edges under the same process parameters and
// builder options, so per-stage results can be cached across netlist edits.
//
// caps is the per-node-index total loading (delay.Model.Caps); forced maps
// case-analysis constants (node -> held value) exactly as the delay
// builder receives them.
func (s *Stage) Fingerprint(caps *cow.Array[float64], forced map[*netlist.Node]bool) uint64 {
	h := fnv64{}
	h.init()
	forcedCode := func(n *netlist.Node) uint64 {
		v, ok := forced[n]
		switch {
		case !ok:
			return 0
		case v:
			return 1
		default:
			return 2
		}
	}
	nodeState := func(n *netlist.Node) {
		h.word(uint64(n.Index))
		h.word(uint64(n.Flags))
		h.word(uint64(int64(n.Phase)))
		h.word(forcedCode(n))
	}
	for _, t := range s.Trans {
		h.word(uint64(t.ID))
		h.word(uint64(t.Kind)<<24 | uint64(t.Flow)<<16 | uint64(t.ForceFlow)<<8 | uint64(t.Role))
		h.word(math.Float64bits(t.W))
		h.word(math.Float64bits(t.L))
		h.word(uint64(t.Gate.Index))
		h.word(uint64(t.A.Index))
		h.word(uint64(t.B.Index))
	}
	for _, n := range s.Nodes {
		nodeState(n)
		h.word(math.Float64bits(caps.At(n.Index)))
		h.word(uint64(len(n.Gates)))
	}
	for _, g := range s.GateInputs {
		nodeState(g)
	}
	return h.sum
}

// fnv64 is an allocation-free FNV-1a accumulator over 64-bit words.
type fnv64 struct{ sum uint64 }

func (h *fnv64) init() { h.sum = 14695981039346656037 }

func (h *fnv64) word(w uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= w & 0xff
		h.sum *= 1099511628211
		w >>= 8
	}
}

// FanoutStages returns the stages that node n feeds as a gate input, in
// stage index order without duplicates.
func (r *Result) FanoutStages(n *netlist.Node) []*Stage {
	var out []*Stage
	for _, t := range n.Gates {
		s := r.ByTrans(t)
		if s == nil {
			continue
		}
		dup := false
		for _, x := range out {
			if x == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
