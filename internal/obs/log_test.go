package obs

import (
	"encoding/json"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerJSON(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, FormatJSON, LevelDebug)
	lg.Info("request done",
		F("route", "/delta"),
		F("status", 200),
		F("dur", 1500*time.Millisecond),
		F("ok", true),
		F("err", errors.New(`broken "pipe"`)),
		F("ratio", 0.25),
		F("nothing", nil),
		F("newline", "a\nb"),
	)
	line := sb.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("line not newline-terminated: %q", line)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, line)
	}
	if ts, err := time.Parse(time.RFC3339Nano, got["ts"].(string)); err != nil || ts.Location() != time.UTC {
		t.Errorf("ts %v is not an RFC 3339 UTC time (%v)", got["ts"], err)
	}
	want := map[string]any{
		"level": "info", "msg": "request done",
		"route": "/delta", "status": float64(200), "dur": "1.5s",
		"ok": true, "err": `broken "pipe"`, "ratio": 0.25,
		"nothing": nil, "newline": "a\nb",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("field %q = %#v, want %#v", k, got[k], v)
		}
	}
	// Deterministic field order: ts, level, msg first.
	if !regexp.MustCompile(`^\{"ts":"[^"]+","level":"info","msg":"request done",`).MatchString(line) {
		t.Fatalf("unexpected prefix: %s", line)
	}
}

func TestLoggerText(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, FormatText, LevelInfo)
	lg.Warn("design evicted", F("design", "cpu core"), F("max", 16))
	want := regexp.MustCompile(`^ts=\S+ level=warn msg="design evicted" design="cpu core" max=16\n$`)
	if !want.MatchString(sb.String()) {
		t.Fatalf("got %q, want %v", sb.String(), want)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, FormatText, LevelWarn)
	lg.Debug("d")
	lg.Info("i")
	if sb.Len() != 0 {
		t.Fatalf("below-level lines emitted: %q", sb.String())
	}
	lg.Warn("w")
	lg.Error("e")
	if n := strings.Count(sb.String(), "\n"); n != 2 {
		t.Fatalf("%d lines, want 2: %q", n, sb.String())
	}
	if !lg.Enabled(LevelError) || lg.Enabled(LevelInfo) {
		t.Fatal("Enabled does not match the configured level")
	}
}

func TestLoggerNil(t *testing.T) {
	var lg *Logger
	// Must not panic, must report disabled.
	lg.Debug("x")
	lg.Info("x", F("k", "v"))
	lg.Warn("x")
	lg.Error("x")
	if lg.Enabled(LevelError) {
		t.Fatal("nil logger claims to be enabled")
	}
}

func TestParseLevelFormat(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
	for s, want := range map[string]Format{"text": FormatText, "": FormatText, "json": FormatJSON} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat accepted garbage")
	}
}

// TestLoggerConcurrent hammers one logger from many goroutines — the
// -race target — and checks every emitted line is intact (single Write
// per line means no interleaving).
func TestLoggerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	lg := NewLogger(w, FormatJSON, LevelInfo)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				lg.Info("line", F("worker", i), F("n", j))
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != workers*per {
		t.Fatalf("%d lines, want %d", len(lines), workers*per)
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("corrupt line %q: %v", ln, err)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
