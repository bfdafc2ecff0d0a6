// Package netlist defines the transistor-level circuit representation that
// every other component of the analyzer operates on: nodes (electrical
// nets) and transistors (enhancement or depletion devices), plus the
// designer annotations (inputs, outputs, clocks, precharged nodes) that a
// 1983-era timing verifier consumed alongside the extracted layout.
package netlist

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind distinguishes the two nMOS device types.
type Kind uint8

const (
	// Enh is an enhancement-mode device: off at Vgs=0, used for
	// pulldowns and pass transistors.
	Enh Kind = iota
	// Dep is a depletion-mode device: conducting at Vgs=0, used as a
	// pullup load in ratioed logic.
	Dep
)

// String returns the single-letter .sim mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Enh:
		return "e"
	case Dep:
		return "d"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Flag is a bit set of node annotations.
type Flag uint16

const (
	// FlagInput marks a primary input: externally driven, assumed stable
	// at the start of each evaluation phase.
	FlagInput Flag = 1 << iota
	// FlagOutput marks a primary output whose settle time is reported.
	FlagOutput
	// FlagClock marks a clock node; Node.Phase says which phase.
	FlagClock
	// FlagPrecharged marks a node precharged high during the opposite
	// phase; during its evaluate phase it starts high and can only fall.
	FlagPrecharged
	// FlagSupply marks VDD or GND.
	FlagSupply
	// FlagStorage marks a dynamic storage node (the retained side of a
	// clocked pass-transistor latch).
	FlagStorage
	// FlagFlowIn forces flow analysis to treat the node as a signal
	// source for adjacent pass transistors (designer annotation).
	FlagFlowIn
	// FlagFlowOut forces flow analysis to treat the node as a signal
	// sink for adjacent pass transistors (designer annotation).
	FlagFlowOut
)

var flagNames = []struct {
	f    Flag
	name string
}{
	{FlagInput, "input"},
	{FlagOutput, "output"},
	{FlagClock, "clock"},
	{FlagPrecharged, "precharged"},
	{FlagSupply, "supply"},
	{FlagStorage, "storage"},
	{FlagFlowIn, "flow-in"},
	{FlagFlowOut, "flow-out"},
}

// String lists the set flags, comma separated.
func (f Flag) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, ",")
}

// Has reports whether all bits in want are set.
func (f Flag) Has(want Flag) bool { return f&want == want }

// Node is an electrical net.
type Node struct {
	// Name is the net name from extraction; unique within a netlist.
	Name string
	// Index is the position of the node in Netlist.Nodes.
	Index int
	// Cap is the extracted lumped capacitance to ground in pF
	// (interconnect only; gate and diffusion loading is derived from the
	// attached devices by the delay model).
	Cap float64
	// Flags holds the designer annotations.
	Flags Flag
	// Phase is the clock phase (1 or 2) for clock nodes, else 0. For
	// precharged and storage nodes it records the phase during which the
	// node evaluates / is written, if known.
	Phase int
	// Exclusive is a designer assertion: nodes sharing the same nonzero
	// group id are mutually exclusive (one-hot) — at most one is high
	// at any time. Decoder outputs, word lines, and shifter controls
	// carry this; analyses use it to reject impossible worst cases.
	Exclusive int

	// Gates lists transistors whose gate terminal is this node.
	Gates []*Transistor
	// Terms lists transistors with a source or drain terminal on this
	// node.
	Terms []*Transistor
}

// IsSupply reports whether the node is VDD or GND.
func (n *Node) IsSupply() bool { return n.Flags.Has(FlagSupply) }

// IsClock reports whether the node is a clock.
func (n *Node) IsClock() bool { return n.Flags.Has(FlagClock) }

// String returns the node name.
func (n *Node) String() string { return n.Name }

// FlowDir is the inferred direction of signal flow through a pass
// transistor's channel.
type FlowDir uint8

const (
	// FlowBoth means direction is unknown or genuinely bidirectional;
	// timing must treat the device pessimistically.
	FlowBoth FlowDir = iota
	// FlowAB means signal flows from terminal A to terminal B.
	FlowAB
	// FlowBA means signal flows from terminal B to terminal A.
	FlowBA
)

// String names the direction.
func (d FlowDir) String() string {
	switch d {
	case FlowBoth:
		return "both"
	case FlowAB:
		return "a->b"
	case FlowBA:
		return "b->a"
	}
	return fmt.Sprintf("FlowDir(%d)", uint8(d))
}

// Role classifies how a device is used, derived from its terminal
// connections during netlist finalization.
type Role uint8

const (
	// RoleUnknown means roles have not been computed yet.
	RoleUnknown Role = iota
	// RolePullup is a device with a terminal on VDD (normally the
	// depletion load of a ratioed gate).
	RolePullup
	// RolePulldown is an enhancement device with a terminal on GND.
	RolePulldown
	// RolePass is a device with neither terminal on a supply: a pass
	// transistor (or a member of a series pulldown stack; stage analysis
	// distinguishes those by conduction paths, not by role).
	RolePass
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleUnknown:
		return "unknown"
	case RolePullup:
		return "pullup"
	case RolePulldown:
		return "pulldown"
	case RolePass:
		return "pass"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Transistor is a single nMOS device. Terminals A and B are the channel
// terminals (source/drain are interchangeable until flow analysis orients
// the device).
type Transistor struct {
	// Index is the position in Netlist.Trans. It is renumbered when
	// devices are removed; ID is the stable handle.
	Index int
	// ID is a netlist-unique serial assigned at AddTransistor and never
	// reused. Incremental tools address devices by it across edits.
	ID int64
	// Kind is enhancement or depletion.
	Kind Kind
	// Gate, A, B are the terminal nodes.
	Gate, A, B *Node
	// W, L are the drawn channel width and length in µm.
	W, L float64
	// Flow is the signal-flow direction assigned by flow analysis.
	Flow FlowDir
	// ForceFlow is a designer annotation overriding flow analysis for
	// this device (FlowBoth = unforced). Chained pass structures whose
	// endpoints are all restored — a Manchester carry rail — need it:
	// the drive-distance heuristic ties, but the designer knows carries
	// move LSB→MSB.
	ForceFlow FlowDir
	// Role is the structural role assigned at finalization.
	Role Role
}

// Other returns the channel terminal opposite n, or nil if n is not a
// channel terminal of the device.
func (t *Transistor) Other(n *Node) *Node {
	switch n {
	case t.A:
		return t.B
	case t.B:
		return t.A
	}
	return nil
}

// ConductsToward reports whether, under the assigned flow direction, signal
// may propagate through the channel toward node dst (which must be a
// channel terminal).
func (t *Transistor) ConductsToward(dst *Node) bool {
	switch t.Flow {
	case FlowAB:
		return dst == t.B
	case FlowBA:
		return dst == t.A
	default:
		return dst == t.A || dst == t.B
	}
}

// String returns a compact description of the device.
func (t *Transistor) String() string {
	return fmt.Sprintf("%s g=%s a=%s b=%s w=%g l=%g", t.Kind, t.Gate, t.A, t.B, t.W, t.L)
}

// Netlist is a complete transistor-level circuit.
type Netlist struct {
	// Name identifies the circuit in reports.
	Name string
	// Nodes holds every node; Nodes[i].Index == i.
	Nodes []*Node
	// Trans holds every transistor; Trans[i].Index == i.
	Trans []*Transistor

	// VDD and GND are the supply nodes (always present; created on
	// demand by the builder and the parser).
	VDD, GND *Node

	// names indexes Nodes by each node's own Name; aliases holds every
	// other name bound to a node (the case variants of the supply names
	// that Node folds, and restored alias entries). A name is in at most
	// one of the two.
	names   nameIndex
	aliases map[string]*Node
	nextID  int64

	// Node and Transistor structs are placed in fixed-capacity slab
	// chunks instead of being allocated one object at a time: a
	// million-device netlist becomes a few hundred heap objects rather
	// than millions, which is the difference the garbage collector's
	// mark phase sees while scanning a live design. Chunks never grow
	// (growth would move the structs), so handed-out pointers are
	// stable; a full chunk is simply replaced by a fresh one, kept
	// alive by the pointers into it.
	nodeSlab  []Node
	transSlab []Transistor

	// adj is the backing array Finalize carves every node's Gates and
	// Terms from.
	adj []*Transistor
}

// slabChunk is the number of structs per allocation chunk.
const slabChunk = 4096

// New returns an empty netlist containing only the two supply nodes, named
// "vdd" and "gnd".
func New(name string) *Netlist {
	nl := &Netlist{Name: name}
	nl.names.init()
	nl.VDD = nl.Node("vdd")
	nl.VDD.Flags |= FlagSupply
	nl.GND = nl.Node("gnd")
	nl.GND.Flags |= FlagSupply
	return nl
}

// Grow reserves room for at least nodes more nodes and trans more
// devices, so a builder that knows its size up front (a parser told the
// length of its input, a restore) fills the netlist without regrowing
// its name index or its Nodes and Trans slices.
func (nl *Netlist) Grow(nodes, trans int) {
	nl.Nodes = slices.Grow(nl.Nodes, nodes)
	nl.Trans = slices.Grow(nl.Trans, trans)
	nl.names.reserve(len(nl.Nodes) + nodes)
}

// Node returns the node with the given name, creating it if necessary.
// Names are case-sensitive except that "vdd", "vss" and "gnd" in any case
// alias the supply nodes.
func (nl *Netlist) Node(name string) *Node {
	return node(nl, name, nl.names.hashString(name))
}

// NodeBytes is Node for a name held in a byte slice, such as a field of
// a parser's line buffer. Finding an existing node allocates nothing;
// creating one copies the name once.
func (nl *Netlist) NodeBytes(name []byte) *Node {
	return node(nl, name, nl.names.hashBytes(name))
}

func node[K string | []byte](nl *Netlist, name K, h uint32) *Node {
	n, slot := find(&nl.names, nl.Nodes, name, h)
	if n != nil {
		return n
	}
	if n := nl.aliases[string(name)]; n != nil {
		return n
	}
	if s := supply(nl, name); s != nil {
		nl.bindAlias(string(name), s)
		return s
	}
	if len(nl.nodeSlab) == cap(nl.nodeSlab) {
		nl.nodeSlab = make([]Node, 0, slabChunk)
	}
	nl.nodeSlab = append(nl.nodeSlab, Node{Name: string(name), Index: len(nl.Nodes)})
	n = &nl.nodeSlab[len(nl.nodeSlab)-1]
	nl.Nodes = append(nl.Nodes, n)
	nl.names.insert(slot, h, n.Index)
	return n
}

// supply returns the supply node a name folds onto — "vdd", "gnd" and
// "vss" in any ASCII case — or nil. It is nil for the supplies' own
// names while New creates them.
func supply[K string | []byte](nl *Netlist, name K) *Node {
	if len(name) != 3 {
		return nil
	}
	var low [3]byte
	for i := range low {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	switch string(low[:]) {
	case "vdd":
		return nl.VDD
	case "gnd", "vss":
		return nl.GND
	}
	return nil
}

// Lookup returns the node with the given name, or nil.
func (nl *Netlist) Lookup(name string) *Node {
	if n := nl.Named(name); n != nil {
		return n
	}
	return nl.aliases[name]
}

// Named returns the node whose own name is name, or nil. It resolves
// the names an analysis is told about — case constants and input
// arrival times — so, unlike Lookup, it follows no alias: "VDD" names
// no node, since the supply's own name is "vdd", and every reader of a
// case resolves each name to the same node or to none.
func (nl *Netlist) Named(name string) *Node {
	n, _ := find(&nl.names, nl.Nodes, name, nl.names.hashString(name))
	return n
}

func (nl *Netlist) bindAlias(name string, n *Node) {
	if nl.aliases == nil {
		nl.aliases = make(map[string]*Node)
	}
	nl.aliases[name] = n
}

// AddTransistor appends a device with the given terminals and size and
// returns it. Role assignment happens in Finalize.
func (nl *Netlist) AddTransistor(k Kind, gate, a, b *Node, w, l float64) *Transistor {
	nl.nextID++
	if len(nl.transSlab) == cap(nl.transSlab) {
		nl.transSlab = make([]Transistor, 0, slabChunk)
	}
	nl.transSlab = append(nl.transSlab, Transistor{
		Index: len(nl.Trans),
		ID:    nl.nextID,
		Kind:  k,
		Gate:  gate,
		A:     a,
		B:     b,
		W:     w,
		L:     l,
	})
	t := &nl.transSlab[len(nl.transSlab)-1]
	nl.Trans = append(nl.Trans, t)
	return t
}

// RemoveTransistor deletes a device from the netlist, preserving the
// relative order of the remaining devices and renumbering their indices.
// Returns false if t is not (or no longer) a member. The caller must run
// Finalize before the netlist is analyzed again: the per-node device
// lists and roles are stale until then.
func (nl *Netlist) RemoveTransistor(t *Transistor) bool {
	i := t.Index
	if i < 0 || i >= len(nl.Trans) || nl.Trans[i] != t {
		return false
	}
	nl.Trans = append(nl.Trans[:i], nl.Trans[i+1:]...)
	for j := i; j < len(nl.Trans); j++ {
		nl.Trans[j].Index = j
	}
	t.Index = -1
	return true
}

// RestoreTransistor reinserts a device previously deleted with
// RemoveTransistor at position at, restoring the exact pre-removal device
// order (and therefore stage extraction order and analysis output). The
// device keeps its original stable ID. It is the rollback inverse of
// RemoveTransistor for aborted incremental deltas; the caller must run
// Finalize before the netlist is analyzed again.
func (nl *Netlist) RestoreTransistor(t *Transistor, at int) {
	if at < 0 {
		at = 0
	}
	if at > len(nl.Trans) {
		at = len(nl.Trans)
	}
	nl.Trans = append(nl.Trans, nil)
	copy(nl.Trans[at+1:], nl.Trans[at:])
	nl.Trans[at] = t
	for j := at; j < len(nl.Trans); j++ {
		nl.Trans[j].Index = j
	}
}

// TruncateNodes discards every node with Index >= n, unwinding node
// creation during a rolled-back edit. The caller must guarantee no
// remaining transistor references a discarded node (rollback removes the
// devices first). Supply aliases are safe: VDD and GND sit at indices 0
// and 1 and are never truncated.
func (nl *Netlist) TruncateNodes(n int) {
	if n < 0 || n >= len(nl.Nodes) {
		return
	}
	nl.names.rehome(len(nl.names.slots), n)
	for name, nd := range nl.aliases {
		if nd.Index >= n {
			delete(nl.aliases, name)
		}
	}
	nl.Nodes = nl.Nodes[:n]
}

// TransByID returns the device with the given stable ID, or nil. IDs
// strictly increase along Trans: AddTransistor appends a new highest ID,
// and RemoveTransistor and RestoreTransistor keep the order. So ID id
// sits at index id-1 until a device before it is removed, and never
// after it. The lookup probes that slot, or the last one when id is past
// the device count (a device added after removals), then binary-searches
// the slots below. Path reports resolve a device per hop, so the probe
// is the common case.
func (nl *Netlist) TransByID(id int64) *Transistor {
	n := int64(len(nl.Trans))
	if id <= 0 || n == 0 {
		return nil
	}
	i := min(id, n) - 1
	if t := nl.Trans[i]; t.ID == id {
		return t
	}
	j, ok := slices.BinarySearchFunc(nl.Trans[:i], id, func(t *Transistor, id int64) int {
		return cmp.Compare(t.ID, id)
	})
	if !ok {
		return nil
	}
	return nl.Trans[j]
}

// Finalize computes derived structure: per-node device lists and per-device
// roles. It must be called after construction and before stage extraction,
// flow analysis, or timing. It is idempotent. A counting pass sizes each
// node's Gates and Terms, which are then carved from one backing array
// (reused by the next Finalize when it is large enough) and filled in
// device order.
func (nl *Netlist) Finalize() {
	// count[2i] and count[2i+1] are node i's gate and terminal counts.
	count := make([]int32, 2*len(nl.Nodes))
	total := 0
	for _, t := range nl.Trans {
		count[2*t.Gate.Index]++
		count[2*t.A.Index+1]++
		total += 2
		if t.B != t.A {
			count[2*t.B.Index+1]++
			total++
		}
	}
	if cap(nl.adj) < total {
		nl.adj = make([]*Transistor, total)
	}
	adj := nl.adj[:total]
	off := 0
	for i, n := range nl.Nodes {
		g, tm := int(count[2*i]), int(count[2*i+1])
		n.Gates = adj[off : off : off+g]
		off += g
		n.Terms = adj[off : off : off+tm]
		off += tm
	}
	for _, t := range nl.Trans {
		t.Gate.Gates = append(t.Gate.Gates, t)
		t.A.Terms = append(t.A.Terms, t)
		if t.B != t.A {
			t.B.Terms = append(t.B.Terms, t)
		}
		switch {
		case t.A == nl.VDD || t.B == nl.VDD:
			t.Role = RolePullup
		case t.A == nl.GND || t.B == nl.GND:
			t.Role = RolePulldown
		default:
			t.Role = RolePass
		}
	}
}

// Clocks returns the clock nodes in index order.
func (nl *Netlist) Clocks() []*Node {
	var out []*Node
	for _, n := range nl.Nodes {
		if n.IsClock() {
			out = append(out, n)
		}
	}
	return out
}

// Inputs returns the primary input nodes in index order.
func (nl *Netlist) Inputs() []*Node {
	var out []*Node
	for _, n := range nl.Nodes {
		if n.Flags.Has(FlagInput) {
			out = append(out, n)
		}
	}
	return out
}

// Outputs returns the primary output nodes in index order.
func (nl *Netlist) Outputs() []*Node {
	var out []*Node
	for _, n := range nl.Nodes {
		if n.Flags.Has(FlagOutput) {
			out = append(out, n)
		}
	}
	return out
}

// NodeNames returns all node names sorted, for deterministic reporting.
func (nl *Netlist) NodeNames() []string {
	names := make([]string, len(nl.Nodes))
	for i, n := range nl.Nodes {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names
}

// String summarizes the netlist.
func (nl *Netlist) String() string {
	return fmt.Sprintf("%s: %d nodes, %d transistors", nl.Name, len(nl.Nodes), len(nl.Trans))
}
