package tech

import (
	"math"
	"testing"
)

func TestBuiltinCornersValid(t *testing.T) {
	for _, c := range Corners() {
		if err := c.Validate(); err != nil {
			t.Errorf("builtin corner %s invalid: %v", c.Name, err)
		}
	}
	if !Typical().IsTypical() {
		t.Error("Typical() must be an identity scaling")
	}
	if Slow().IsTypical() || Fast().IsTypical() {
		t.Error("slow/fast must not be identity scalings")
	}
	if s := Slow(); s.DelayScale() <= 1 {
		t.Errorf("slow corner DelayScale = %g, want > 1", s.DelayScale())
	}
	if f := Fast(); f.DelayScale() >= 1 {
		t.Errorf("fast corner DelayScale = %g, want < 1", f.DelayScale())
	}
}

func TestParseCorners(t *testing.T) {
	got, err := ParseCorners("slow, typ,fast")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Name != "slow" || got[1].Name != "typ" || got[2].Name != "fast" {
		t.Fatalf("ParseCorners builtins = %v", got)
	}
	got, err = ParseCorners("typ,hot:1.45:1.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Name != "hot" || got[1].RScale != 1.45 || got[1].CScale != 1.2 {
		t.Fatalf("ParseCorners custom = %v", got)
	}
	if got, err := ParseCorners(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{
		"warm",            // unknown builtin
		"x:1.0",           // wrong arity
		"x:a:b",           // non-numeric
		"x:-1:1",          // non-positive scale
		"x:1e-200:1e-200", // delay scale underflows to 0
		"x:1e200:1e200",   // delay scale overflows
		"slow,slow",       // duplicate
		"typ,typical",     // duplicate via alias
		":1:1",            // empty name
		"slow:1:1:1",      // too many fields
	} {
		if _, err := ParseCorners(bad); err == nil {
			t.Errorf("ParseCorners(%q) succeeded, want error", bad)
		}
	}
}

func TestScaledParams(t *testing.T) {
	p := Default()
	q := p.At(Slow())
	if q.REnh != p.REnh*1.30 || q.RPass != p.RPass*1.30 || q.RDep != p.RDep*1.30 {
		t.Error("Scaled must multiply every channel resistance by RScale")
	}
	if q.CGate != p.CGate*1.10 || q.CDiffArea != p.CDiffArea*1.10 {
		t.Error("Scaled must multiply every capacitance by CScale")
	}
	if q.Lambda != p.Lambda || q.VDD != p.VDD || q.VInv != p.VInv || q.VTh != p.VTh || q.DiffExt != p.DiffExt {
		t.Error("Scaled must leave geometry and voltages unchanged")
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("scaled params invalid: %v", err)
	}
	// τ is pure R·C, so it must scale by exactly DelayScale (up to one
	// rounding in the product).
	want := p.Tau() * Slow().DelayScale()
	if got := q.Tau(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("scaled Tau = %g, want %g", got, want)
	}
	if id := p.Scaled(1, 1); id != p {
		t.Error("identity scaling must return equal params")
	}
}

func TestCornerString(t *testing.T) {
	c := Corner{Name: "hot", RScale: 1.45, CScale: 1.2}
	parsed, err := ParseCorners(c.String())
	if err != nil || len(parsed) != 1 || parsed[0] != c {
		t.Fatalf("round-trip %q -> %v, %v", c.String(), parsed, err)
	}
}
