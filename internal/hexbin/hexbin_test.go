package hexbin

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndAt(t *testing.T) {
	h := New(10, 10, 0, 1, 0, 1)
	h.Add(0.05, 0.05) // bin (0,0)
	h.Add(0.95, 0.95) // bin (9,9)
	h.Add(1.0, 1.0)   // edge: top bin, not clipped? (==max is in range)
	if h.At(0, 0) != 1 || h.At(9, 9) != 2 {
		t.Fatalf("counts wrong: %d %d", h.At(0, 0), h.At(9, 9))
	}
	if h.Total != 3 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Clipped != 0 {
		t.Fatalf("clipped = %d, want 0", h.Clipped)
	}
}

func TestClipping(t *testing.T) {
	h := New(4, 4, 0, 1, 0, 1)
	h.Add(-5, 0.5)
	h.Add(0.5, 7)
	if h.Clipped != 2 {
		t.Fatalf("clipped = %d, want 2", h.Clipped)
	}
	if h.At(0, 2) != 1 || h.At(2, 3) != 1 {
		t.Fatal("clipped points not clamped into edge bins")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5, 0, 1, 0, 1)
}

func TestWriteCSV(t *testing.T) {
	h := New(2, 2, 0, 2, 0, 2)
	h.Add(0.5, 0.5)
	h.Add(1.5, 1.5)
	h.Add(1.5, 1.5)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "x,y,count" || len(lines) != 3 {
		t.Fatalf("csv:\n%s", buf.String())
	}
	if lines[1] != "0.5,0.5,1" || lines[2] != "1.5,1.5,2" {
		t.Fatalf("csv rows: %v", lines[1:])
	}
}

func TestRender(t *testing.T) {
	h := New(20, 10, 0, 1, 0, 1)
	for i := 0; i < 100; i++ {
		h.Add(float64(i%10)/10, float64(i%10)/10)
	}
	var buf bytes.Buffer
	if err := h.Render(&buf, "test plot"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "n=100") {
		t.Fatalf("render header missing:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 12 {
		t.Fatal("render too short")
	}
}

func TestQuickHistogramConservesMass(t *testing.T) {
	// Property: Total equals points added; sum of counts equals Total.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)
		h := New(7, 5, 0, 1, 0, 1)
		for i := 0; i < n; i++ {
			h.Add(rng.Float64()*1.4-0.2, rng.Float64()) // some clipping
		}
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		return h.Total == int64(n) && sum == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
