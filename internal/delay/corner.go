package delay

import "slices"

// Corner derivation: a PVT corner expressed as uniform R/C derates (see
// tech.Corner) scales every first-order RC delay by exactly
// rScale·cScale, because each enumerated arc delay is a sum of R·C
// products in which every R carries the rScale factor and every C the
// cScale factor. That algebraic identity means a corner model needs no
// stage re-extraction and no GND-path re-enumeration: it is the base
// model with its delay columns multiplied through. Everything structural
// — arc endpoints, phase masks, inversion, representative devices — is
// byte-identical to the base, which is what lets every corner share one
// wave plan in core.

// ScaleModel derives the timing model at a corner from the base (typical)
// model: edge delays scale by rScale·cScale, node capacitances by cScale,
// and the structural arrays (NodeFlags, NodePhase) are shared with the
// base, not copied — they are build-time snapshots both models read only.
// Infinite (impossible-transition) delays stay infinite under the
// positive scale, so the derived model fires exactly the arcs the base
// fires. A unit scaling returns the base model itself.
func ScaleModel(base *Model, rScale, cScale float64) *Model {
	if rScale == 1 && cScale == 1 {
		return base
	}
	m := scaled(base, slices.Clone(base.Edges), make([]float64, len(base.Caps)))
	for i := range m.Edges {
		scaleArc(&m.Edges[i], rScale, cScale)
	}
	for i, c := range base.Caps {
		m.Caps[i] = c * cScale
	}
	return m
}

// Scale derives the corner model of a patched build's model m from prev,
// the same corner's model of the patch's Base (ScaleModel(Base, rScale,
// cScale)): prev's arcs and capacitances are copied and only those the
// patch lists are rescaled from m. The result is bitwise ScaleModel(m,
// rScale, cScale), because every other arc and capacitance of m is
// Base's.
func (pt *Patch) Scale(prev, m *Model, rScale, cScale float64) *Model {
	if rScale == 1 && cScale == 1 {
		return m
	}
	c := scaled(m, slices.Clone(prev.Edges), slices.Clone(prev.Caps))
	for _, i := range pt.Arcs {
		c.Edges[i] = m.Edges[i]
		scaleArc(&c.Edges[i], rScale, cScale)
	}
	for _, n := range pt.Nodes {
		c.Caps[n] = m.Caps[n] * cScale
	}
	return c
}

// scaled is a corner model of base over the given arc and capacitance
// arrays, sharing base's structural arrays and arc layout.
func scaled(base *Model, edges []Edge, caps []float64) *Model {
	return &Model{
		Edges:     edges,
		Caps:      caps,
		NodeFlags: base.NodeFlags,
		NodePhase: base.NodePhase,
		Truncated: base.Truncated,
		Layout:    base.Layout,
	}
}

// scaleArc is the corner rule for one arc: both delays times
// rScale·cScale.
func scaleArc(e *Edge, rScale, cScale float64) {
	ds := rScale * cScale
	e.DRise *= ds
	e.DFall *= ds
}
