package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestNewTraceIDUniqueAndValid(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !ValidTraceID(id) {
			t.Fatalf("minted invalid trace id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestValidTraceID(t *testing.T) {
	cases := map[string]bool{
		"abc123-00000001":       true,
		"ABCDEF":                true,
		"":                      false,
		strings.Repeat("a", 64): true,
		strings.Repeat("a", 65): false,
		"abc\ndef":              false,
		`abc"def`:               false,
		"hello world":           false,
	}
	for id, want := range cases {
		if got := ValidTraceID(id); got != want {
			t.Errorf("ValidTraceID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestTraceSpansEmitJSON(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTrace("deadbeef-00000001", logger)
	sp := tr.Start("execution")
	sp.SetAttr(slog.String("key", "k1"))
	if d := sp.End(); d < 0 {
		t.Fatalf("negative span duration %v", d)
	}
	sp.End() // idempotent
	tr.Event("queue_wait", 5*time.Millisecond)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d span records, want 2:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("span record not JSON: %v", err)
	}
	if rec["trace_id"] != "deadbeef-00000001" || rec["span"] != "execution" || rec["key"] != "k1" {
		t.Fatalf("span record fields wrong: %v", rec)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace ID not empty")
	}
	sp := tr.Start("x")
	sp.SetAttr(slog.String("a", "b"))
	sp.End()
	tr.Event("y", time.Second)
	if NewTrace("id", nil) != nil {
		t.Fatal("NewTrace with nil logger should return nil")
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil || TraceID(ctx) != "" {
		t.Fatal("empty context should carry no trace")
	}
	if Into(ctx, nil) != ctx {
		t.Fatal("Into with nil trace must return ctx unchanged")
	}
	tr := NewTrace("abc-1", Discard())
	ctx2 := Into(ctx, tr)
	if From(ctx2) != tr || TraceID(ctx2) != "abc-1" {
		t.Fatal("trace not recoverable from context")
	}
}

func TestParseLevelAndNewLogger(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}

	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown")
	if strings.Contains(buf.String(), "hidden") || !strings.Contains(buf.String(), "shown") {
		t.Fatalf("level filtering broken: %s", buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("json format not JSON: %v", err)
	}
	if _, err := NewLogger(&buf, "xml", slog.LevelInfo); err == nil {
		t.Error("NewLogger accepted bad format")
	}
	Discard().Info("dropped")
}
