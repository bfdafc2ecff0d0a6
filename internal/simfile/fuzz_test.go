package simfile

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse asserts the parser's error contract: Read either succeeds or
// returns a *ParseError — it never panics and never returns a bare error,
// whatever bytes arrive. The daemon feeds POST /load bodies straight into
// Read, so this property is load-bearing for tvd's robustness. Read must
// also agree with referenceRead, the string-based parser it replaced: the
// same accept/reject decision and error, and the same netlist.
func FuzzParse(f *testing.F) {
	sims, err := filepath.Glob("../../testdata/*.sim")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range sims {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	// One seed per record type plus known-hostile shapes: non-finite
	// sizes and caps, NaN units, alias cycles, truncated records.
	for _, seed := range []string{
		"| units: 100\ne g a b 200 400\nd out vdd out 800 200\n",
		"C a b 12.5\nN a 3\n= canon alias\nA a input clock=1 precharged=2\n",
		"A x storage=1 flowin flowout exclusive=3 output\n",
		"e g a b NaN 4\n",
		"e g a b 2 +Inf\n",
		"e g a b 0 4\n",
		"N a -5\nC a b Inf\n",
		"| units: NaN\ne g a b 2 4\n",
		"| units: 0\n",
		"= a b\n= b a\ne a b a 2 4\n",
		"e g a\nZ what\nA\n",
		"A n clock\nA n clock=7\nA n exclusive\nA n bogus\n",
		"e g a b 2 4 >\ne g a b 2 4 <\ne g a b 2 4 ?\n",
		"| units: 100\r\ne g a gnd 400 800\r\nN a 12.5\r\nA a output\r\n",
		"e\tg\ta\tgnd\t4\t8\t>\n\t| units:\t2\n  N\ta  3 \nC a\tVDD 1\r\n\t\n",
		"e GND Vss VDD 4 8\nN Gnd 1\ne x\u00a0y gnd 4 8\n",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data string) {
		checkAgainstReference(t, data)
		nl, err := Read(strings.NewReader(data), "fuzz")
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Read returned a non-ParseError error: %v", err)
			}
			if nl != nil {
				t.Fatal("Read returned both a netlist and an error")
			}
			return
		}
		if nl == nil {
			t.Fatal("Read returned nil netlist with nil error")
		}
		// A netlist that parsed must survive re-emission and re-parsing:
		// Write emits the dialect Read accepts.
		var sb strings.Builder
		if err := Write(&sb, nl); err != nil {
			t.Fatalf("Write failed on parsed netlist: %v", err)
		}
		if _, err := Read(strings.NewReader(sb.String()), "fuzz2"); err != nil {
			t.Fatalf("round-trip re-parse failed: %v\noutput:\n%s", err, sb.String())
		}
	})
}
