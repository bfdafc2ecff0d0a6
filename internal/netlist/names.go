package netlist

import (
	"hash/maphash"
	"math"
)

// nameIndex maps node names to positions in Netlist.Nodes. It is an
// open-addressing table with linear probing over a power-of-two slot
// array, kept at most half full. A slot packs 32 bits of the name's hash
// (high word) over the node's index + 1 (low word; 0 marks an empty
// slot). The hash bits pick the home slot and screen probes, so a probe
// reads a node's name only on a hash match, and growing re-homes slots
// without reading any name. The key is the node's own Name, so the
// table holds no strings of its own.
type nameIndex struct {
	slots []uint64
	used  int
	seed  maphash.Seed
}

// minNameSlots is the table size of an empty netlist.
const minNameSlots = 64

func (x *nameIndex) init() {
	x.seed = maphash.MakeSeed()
	x.slots = make([]uint64, minNameSlots)
}

func (x *nameIndex) hashString(name string) uint32 {
	return uint32(maphash.String(x.seed, name) >> 32)
}

func (x *nameIndex) hashBytes(name []byte) uint32 {
	return uint32(maphash.Bytes(x.seed, name) >> 32)
}

// find returns the node named name, whose hash bits are h, or nil and
// the empty slot where an insert of that name belongs.
func find[K string | []byte](x *nameIndex, nodes []*Node, name K, h uint32) (*Node, int) {
	mask := len(x.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return nil, i
		}
		if uint32(s>>32) == h {
			if n := nodes[uint32(s)-1]; n.Name == string(name) {
				return n, i
			}
		}
	}
}

// insert records node index idx, hashing to h, at empty slot i (from a
// find that missed), growing the table past half full.
func (x *nameIndex) insert(i int, h uint32, idx int) {
	x.slots[i] = uint64(h)<<32 | uint64(uint32(idx+1))
	x.used++
	if 2*x.used > len(x.slots) {
		x.rehome(2*len(x.slots), math.MaxInt)
	}
}

// reserve grows the table so that it holds n names at most half full.
func (x *nameIndex) reserve(n int) {
	size := len(x.slots)
	for size < 2*n {
		size *= 2
	}
	if size > len(x.slots) {
		x.rehome(size, math.MaxInt)
	}
}

// rehome moves every slot naming a node index below keep into a fresh
// table of size slots (a power of two), dropping the rest.
func (x *nameIndex) rehome(size, keep int) {
	old := x.slots
	x.slots = make([]uint64, size)
	x.used = 0
	mask := size - 1
	for _, s := range old {
		if s == 0 || int(uint32(s)) > keep {
			continue
		}
		i := int(s>>32) & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
		x.used++
	}
}
