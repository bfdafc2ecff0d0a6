package netlist

import "sort"

// This file is the netlist's persistence surface: the accessors a
// snapshot writer needs to capture state the public fields don't expose
// (the alias name table, the device-ID allocator) and the constructors a
// restore needs to rebuild a netlist bit-for-bit (explicit device IDs,
// explicit allocator position). Normal construction never uses these.

// Alias is one name-table entry whose key differs from its node's
// canonical name — the case variants of vdd/gnd/vss that Node() folds
// onto the supplies. Persisted so journaled edits that addressed a node
// through an alias still resolve after restore.
type Alias struct {
	Name string
	Node *Node
}

// Aliases returns the alias entries sorted by name (deterministic
// export order).
func (nl *Netlist) Aliases() []Alias {
	var out []Alias
	for name, n := range nl.aliases {
		out = append(out, Alias{Name: name, Node: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddAlias binds name to n in the name table without creating a node.
// Returns false (and does nothing) if the name is already bound or n is
// not a member node.
func (nl *Netlist) AddAlias(name string, n *Node) bool {
	if n == nil || name == "" {
		return false
	}
	if nl.Lookup(name) != nil {
		return false
	}
	if n.Index < 0 || n.Index >= len(nl.Nodes) || nl.Nodes[n.Index] != n {
		return false
	}
	nl.bindAlias(name, n)
	return true
}

// AddTransistorWithID is AddTransistor with a caller-chosen stable ID:
// restore replays the original allocation so journaled deltas that
// address devices by ID keep resolving. The allocator advances to the
// ID; the caller finishes with SetNextID for IDs handed out past the
// last device. Returns nil unless the ID is above every ID handed out
// so far, which keeps IDs strictly increasing along Trans (see
// TransByID).
func (nl *Netlist) AddTransistorWithID(id int64, k Kind, gate, a, b *Node, w, l float64) *Transistor {
	if id <= nl.nextID {
		return nil
	}
	nl.nextID = id
	if len(nl.transSlab) == cap(nl.transSlab) {
		nl.transSlab = make([]Transistor, 0, slabChunk)
	}
	nl.transSlab = append(nl.transSlab, Transistor{
		Index: len(nl.Trans),
		ID:    id,
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

// NextID returns the device-ID allocator position: the last ID handed
// out (IDs can exceed the largest live ID after removals).
func (nl *Netlist) NextID() int64 { return nl.nextID }

// SetNextID advances the device-ID allocator to at least id, so
// post-restore adds never reuse a persisted (possibly since-removed)
// ID. It never rewinds.
func (nl *Netlist) SetNextID(id int64) {
	if id > nl.nextID {
		nl.nextID = id
	}
}
