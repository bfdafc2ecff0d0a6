package delay

// Corner derivation: a PVT corner expressed as uniform R/C derates (see
// tech.Corner) scales every first-order RC delay by exactly
// rScale·cScale, because each enumerated arc delay is a sum of R·C
// products in which every R carries the rScale factor and every C the
// cScale factor. That algebraic identity means a corner model needs no
// stage re-extraction, no GND-path re-enumeration and no arcs of its
// own: it is the base model read at a scale (Model.At). Everything
// structural — arc endpoints, phase masks, inversion, representative
// devices — is the base's, which is what lets every corner share one
// wave plan in core. A corner whose delays are not a uniform scale of
// the base's (a characterized, break-point library) would need arcs of
// its own.

// ScaleModel materializes the view base.At(corner) as a model of its own:
// a copy of base's arcs with both delays multiplied by rScale·cScale, read
// at scale 1, sharing base's node snapshot and layout and holding no
// Caps. Analyses over it and over the view are bit-identical, since the
// view rounds the same product on every read (Model.Delay). It is the
// reference the corner tests and T9 compare the views against; no
// analysis path calls it. A unit scaling returns base itself.
func ScaleModel(base *Model, rScale, cScale float64) *Model {
	if rScale == 1 && cScale == 1 {
		return base
	}
	ds := rScale * cScale
	m := &Model{
		Edges:     base.Edges.Clone(),
		NodeFlags: base.NodeFlags,
		NodePhase: base.NodePhase,
		Truncated: base.Truncated,
		Layout:    base.Layout,
	}
	for i := range m.Edges.Len() {
		e := m.Edges.Mut(i)
		e.DRise *= ds
		e.DFall *= ds
	}
	return m
}
