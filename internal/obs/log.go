package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Logger is a leveled structured logger on log/slog. Lines are either
// logfmt-style text or JSON objects, one per line, and both start with
// the fields ts (RFC 3339, UTC), level (lowercase) and msg, then the
// call's fields in order. Like the rest of this package, a nil *Logger is
// the disabled state: every method no-ops, so call sites never branch on
// "is logging on".
type Logger struct {
	sl *slog.Logger
}

// Level orders log severities.
type Level = slog.Level

const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel parses a -log-level flag value: debug, info, warn or error.
func ParseLevel(s string) (Level, error) {
	var lv Level
	if err := lv.UnmarshalText([]byte(s)); err != nil {
		return LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
	}
	return lv, nil
}

// Format selects the line encoding.
type Format int8

const (
	FormatText Format = iota
	FormatJSON
)

// ParseFormat parses a -log-format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text", "":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("unknown log format %q (want text or json)", s)
}

// Field is one key/value pair on a log line.
type Field = slog.Attr

// F builds a Field; it keeps call sites terse.
func F(key string, val any) Field { return slog.Any(key, val) }

// NewLogger returns a logger writing to w. Each line is emitted as a
// single Write call.
func NewLogger(w io.Writer, format Format, level Level) *Logger {
	opt := &slog.HandlerOptions{Level: level, ReplaceAttr: lineContract}
	if format == FormatJSON {
		return &Logger{slog.New(slog.NewJSONHandler(w, opt))}
	}
	return &Logger{slog.New(slog.NewTextHandler(w, opt))}
}

// lineContract renames slog's time key to ts in UTC, lowercases the
// level, and prints durations as Go durations ("1.5s").
func lineContract(_ []string, a slog.Attr) slog.Attr {
	switch {
	case a.Key == slog.TimeKey:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case a.Key == slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	case a.Value.Kind() == slog.KindDuration:
		return slog.String(a.Key, a.Value.Duration().String())
	}
	return a
}

// Enabled reports whether lines at lv would be emitted; nil-safe.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && l.sl.Enabled(context.Background(), lv)
}

// Debug emits a debug-level line; nil-safe.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info emits an info-level line; nil-safe.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn emits a warn-level line; nil-safe.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error emits an error-level line; nil-safe.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(lv Level, msg string, fields []Field) {
	if l != nil {
		l.sl.LogAttrs(context.Background(), lv, msg, fields...)
	}
}
