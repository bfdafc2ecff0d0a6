package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"

	"nmostv/internal/incr"
	"nmostv/internal/netlist"
	"nmostv/internal/simfile"
)

// design is what the op streams draw from: the devices and nodes of the
// .sim text tvd loads, parsed here the same way, so device IDs match.
type design struct {
	name        string
	sim         []byte
	transistors int
	devices     []device
	pulldowns   []int // indexes into devices of the enhancement pulldowns
	nodes       []nodeRec
	// nextID is the ID the first device added to the loaded design gets.
	nextID int64
}

type device struct {
	id         int64
	w, l       float64
	gate, a, b string
}

type nodeRec struct {
	name string
	cap  float64
}

func parseDesign(name string, sim []byte) (*design, error) {
	nl, err := simfile.Read(bytes.NewReader(sim), name)
	if err != nil {
		return nil, err
	}
	d := &design{name: name, sim: sim, transistors: len(nl.Trans), nextID: nl.NextID() + 1}
	for _, t := range nl.Trans {
		if t.Kind == netlist.Enh && (t.A == nl.GND || t.B == nl.GND) {
			d.pulldowns = append(d.pulldowns, len(d.devices))
		}
		d.devices = append(d.devices, device{id: t.ID, w: t.W, l: t.L, gate: t.Gate.Name, a: t.A.Name, b: t.B.Name})
	}
	for _, n := range nl.Nodes {
		if !n.IsSupply() {
			d.nodes = append(d.nodes, nodeRec{name: n.Name, cap: n.Cap})
		}
	}
	if len(d.pulldowns) == 0 || len(d.nodes) == 0 {
		return nil, fmt.Errorf("design %s has no pulldowns or no signal nodes", name)
	}
	return d, nil
}

// op is one request of a tvd workload: a delta batch or a read.
type op struct {
	route  string // delta, slack, node, critical, paths, why, diff, corners
	deltas []incr.Delta
	node   string
	corner string
	k      int
	// added is the ID the batch's add delta must be given; 0 for none.
	added int64
}

// path is the request path tvd serves the op at.
func (o op) path() string {
	switch o.route {
	case "node":
		return "/node/" + url.PathEscape(o.node)
	case "why":
		return "/why?node=" + url.QueryEscape(o.node)
	case "slack", "critical", "paths":
		p := "/" + o.route + "?k=" + strconv.Itoa(o.k)
		if o.corner != "" {
			p += "&corner=" + o.corner
		}
		return p
	default:
		return "/" + o.route
	}
}

// corners are the views a read picks from: "" is the merged view for
// /slack and the base analysis elsewhere.
var corners = []string{"", "slow", "typ", "fast"}

// stream generates a workload's ops from a seed. It remembers the sizes
// and caps it set, so a resize always changes W, and the pulldown it
// added, so the next topology edit removes it again.
type stream struct {
	rng   *rand.Rand
	d     *design
	w     map[int64]float64
	caps  map[string]float64
	added int64
	next  int64
	ecos  *deck
	reads *deck
}

func newStream(d *design, seed int64) *stream {
	return &stream{
		rng:   rand.New(rand.NewPCG(uint64(seed), 0)),
		d:     d,
		w:     make(map[int64]float64),
		caps:  make(map[string]float64),
		next:  d.nextID,
		ecos:  newDeck(7, 2, 1),
		reads: newDeck(5, 4, 3, 3, 3, 1, 1),
	}
}

// roundReads is the size of the read deck: a query-100k op is one round
// of it, so every op holds the read mix exactly.
const roundReads = 20

// deck deals op kinds in exact shares: each round holds kind k shares[k]
// times, in an order shuffled by the stream's seed. Drawing kinds at
// random instead would let the mix of a run drift with the seed, and the
// mix moves the op latencies more than the targets do.
type deck struct {
	cards []int
	next  int
}

func newDeck(shares ...int) *deck {
	d := new(deck)
	for k, n := range shares {
		for range n {
			d.cards = append(d.cards, k)
		}
	}
	return d
}

func (s *stream) deal(d *deck) int {
	if d.next == 0 {
		s.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return k
}

// eco is the next edit-100k batch: 70% a single resize to a different W,
// 20% a setcap ×[0.5,2], 10% a topology edit.
func (s *stream) eco() op {
	switch s.deal(s.ecos) {
	case 0:
		return s.resize()
	case 1:
		return s.setcap()
	default:
		return s.topology()
	}
}

// resize sets one device's W to its original width times [0.5,2], on a
// 0.25µm grid, never to the width it has now.
func (s *stream) resize() op {
	dv := s.d.devices[s.rng.IntN(len(s.d.devices))]
	cur, ok := s.w[dv.id]
	if !ok {
		cur = dv.w
	}
	w := cur
	for w == cur {
		w = max(0.25, math.Round(4*dv.w*(0.5+1.5*s.rng.Float64()))/4)
	}
	s.w[dv.id] = w
	return op{route: "delta", deltas: []incr.Delta{{Op: "resize", ID: dv.id, W: w}}}
}

// setcap scales one node's lumped capacitance by [0.5,2]. Nodes without
// one start from 0.02pF, so the edit always changes the cap.
func (s *stream) setcap() op {
	n := s.d.nodes[s.rng.IntN(len(s.d.nodes))]
	cur, ok := s.caps[n.name]
	if !ok {
		cur = n.cap
	}
	c := max(cur, 0.02) * (0.5 + 1.5*s.rng.Float64())
	s.caps[n.name] = c
	return op{route: "delta", deltas: []incr.Delta{{Op: "setcap", Node: n.name, Cap: c}}}
}

// topology adds an enhancement device in parallel with an existing
// pulldown, or removes the one it added last time.
func (s *stream) topology() op {
	if s.added != 0 {
		id := s.added
		s.added = 0
		return op{route: "delta", deltas: []incr.Delta{{Op: "remove", ID: id}}}
	}
	p := s.d.devices[s.d.pulldowns[s.rng.IntN(len(s.d.pulldowns))]]
	s.added = s.next
	s.next++
	return op{
		route:  "delta",
		deltas: []incr.Delta{{Op: "add", Kind: "e", Gate: p.gate, A: p.a, B: p.b, W: p.w, L: p.l}},
		added:  s.added,
	}
}

// read is the next query-100k read: 25% /node, 20% /slack, 15% /critical,
// 15% /paths, 15% /why, 5% /diff, 5% /corners, exactly so in each round of
// roundReads.
func (s *stream) read() op {
	node := func() string { return s.d.nodes[s.rng.IntN(len(s.d.nodes))].name }
	corner := func() string { return corners[s.rng.IntN(len(corners))] }
	switch s.deal(s.reads) {
	case 0:
		return op{route: "node", node: node()}
	case 1:
		return op{route: "slack", k: 10, corner: corner()}
	case 2:
		return op{route: "critical", k: 10, corner: corner()}
	case 3:
		return op{route: "paths", k: 20, corner: corner()}
	case 4:
		return op{route: "why", node: node()}
	case 5:
		return op{route: "diff"}
	default:
		return op{route: "corners"}
	}
}
