package main

import (
	"math"
	"os"
	"reflect"
	"testing"

	"nmostv/internal/simfile"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b,c", []string{"a", "b", "c"}},
		{" a , b ", []string{"a", "b"}},
		{"a,,b,", []string{"a", "b"}},
	}
	for _, c := range cases {
		if got := splitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInputTimesFlag(t *testing.T) {
	it := inputTimes{}
	if err := it.Set("din=2.5"); err != nil {
		t.Fatal(err)
	}
	if it["din"] != 2.5 {
		t.Errorf("din = %g, want 2.5", it["din"])
	}
	if err := it.Set("nodelimiter"); err == nil {
		t.Error("missing '=' must fail")
	}
	if err := it.Set("x=abc"); err == nil {
		t.Error("bad number must fail")
	}
	if it.String() == "" {
		t.Error("flag must stringify")
	}
}

func TestFmtArr(t *testing.T) {
	if got := fmtArr(math.Inf(-1)); got != "static" {
		t.Errorf("fmtArr(-Inf) = %q, want static", got)
	}
	if got := fmtArr(1.25); got != "1.25" {
		t.Errorf("fmtArr(1.25) = %q", got)
	}
}

func TestUnknownNodes(t *testing.T) {
	f, err := os.Open("../../testdata/tutorial.sim")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nl, err := simfile.Read(f, "tutorial")
	if err != nil {
		t.Fatal(err)
	}
	if got := unknownNodes(nl, []string{"en", "vdd"}, []string{"din"}, inputTimes{"din": 2}); got != nil {
		t.Errorf("known names reported unknown: %v", got)
	}
	nl.Node("VDD") // binds an alias of vdd, which analysis does not match
	got := unknownNodes(nl,
		[]string{"zz", "bogus_node", "en", "zz"}, []string{"din", "nope", "VDD"},
		inputTimes{"nosuch": 5, "din": 2, "alsonot": 1})
	want := []string{"-sethigh bogus_node", "-sethigh zz", "-setlow VDD", "-setlow nope", "-input alsonot", "-input nosuch"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unknownNodes = %q, want %q", got, want)
	}
}
