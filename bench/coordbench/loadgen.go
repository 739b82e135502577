package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"coordbot/internal/detectd"
)

// live is what one round observed of a daemon, from outside.
type live struct {
	timedN   int
	wallS    float64 // timed phase start -> /v1/stats.ingested reached N
	cpuS     float64 // SUT user+sys CPU, timed phase start -> final census visible
	peakRSS  float64 // MB
	freshMS  []float64
	readMS   []float64
	ackMS    []float64
	lateMS   []float64
	attempt  int
	failed   int
	http429  int
	queueMax int
	// steps is the survey schedule recovered from the polls: steps[i] is
	// how many timed batches the i-th distinct published watermark covered.
	steps      []int
	start, end detectd.StatsOut
	census     *census
}

// setUp spawns a daemon, applies the warm-up over one connection and
// waits until a survey covering it is published. The seconds it returns
// are spawn -> warm-up applied, plus that first (full) survey's own
// duration as the daemon reports it. The wait for the survey ticker in
// between is left out: it rounds spawn -> published up to a whole number
// of intervals, which hides any change smaller than an interval and turns
// one that crosses a tick into a jump (0.13 s or 0.23 s on survey-churn,
// whichever side of the first tick the warm-up landed).
func setUp(ctx context.Context, bin string, p *plan, ingest *http.Client) (*sut, float64, error) {
	s, err := spawnDaemon(ctx, bin, p.sut)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*sut, float64, error) {
		s.stop()
		return nil, 0, fmt.Errorf("set-up: %w (daemon stderr: %s)", err, s.stderr.String())
	}
	for _, b := range p.warm {
		status, err := post(ctx, ingest, s.base+"/v1/ingest", p.contentType(), b.body)
		if err != nil || status != http.StatusAccepted {
			return fail(fmt.Errorf("warm-up POST: status %d, %v", status, err))
		}
	}
	if _, err := waitIngested(ctx, ingest, s, int64(count(p.warm))); err != nil {
		return fail(err)
	}
	applied := time.Since(s.spawned).Seconds()
	warmTS := p.warm[len(p.warm)-1].maxTS
	for {
		var tr detectd.TrianglesOut
		status, err := get(ctx, ingest, s.base+"/v1/triangles?limit=0", &tr)
		if err != nil {
			return fail(err)
		}
		if status == http.StatusOK && tr.Watermark >= warmTS {
			return s, applied + tr.DurationMS/1e3, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIngested polls /v1/stats until the daemon has applied n comments.
func waitIngested(ctx context.Context, c *http.Client, s *sut, n int64) (detectd.StatsOut, error) {
	for {
		var st detectd.StatsOut
		if status, err := get(ctx, c, s.base+"/v1/stats", &st); err != nil || status != http.StatusOK {
			return st, fmt.Errorf("stats: status %d, %v", status, err)
		}
		if st.Ingested >= n {
			return st, nil
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// poisson returns n cumulative offsets with exponential gaps, scaled so
// that the last one falls at exactly n mean gaps: the arrivals of a
// Poisson process given their number and span. Periodic schedules alias
// with the daemon's survey ticker — the phase between the two is random
// per run and moved freshness by 40% — so every open-loop schedule here
// is seeded Poisson; an unscaled one would make the offered rate itself
// vary by 3% from seed to seed.
func poisson(rng *rand.Rand, n int, meanGap time.Duration) []time.Duration {
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	var t float64
	for i, g := range gaps {
		t += g / total * float64(n) * float64(meanGap)
		out[i] = time.Duration(t)
	}
	return out
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runTimed drives the timed phase: this goroutine ingests over one
// ordered connection, a second one reads. A second ingest connection
// would let batches overtake each other; the daemon clamps late comments
// up to the watermark, which manufactures co-timing, and the pair count
// then differs run to run.
func runTimed(ctx context.Context, s *sut, p *plan, seed int64, ingest *http.Client) (*live, error) {
	warmN, timedN := int64(count(p.warm)), int64(count(p.timed))
	lastTS := p.timed[len(p.timed)-1].maxTS
	lv := &live{timedN: int(timedN)}

	if _, err := get(ctx, ingest, s.base+"/v1/stats", &lv.start); err != nil {
		return nil, err
	}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}

	// due[i] is when timed batch i was due to be sent; sent counts the
	// entries the reader may look at.
	due := make([]time.Time, len(p.timed))
	var sent atomic.Int64
	var ingestedAt atomic.Int64 // unix ns once stats showed all N applied

	t0 := time.Now()
	rd := &reader{s: s, p: p, due: due, sent: &sent, ingestedAt: &ingestedAt, lastTS: lastTS}
	rdDone := make(chan error, 1)
	go func() { rdDone <- rd.run(ctx, t0, rand.New(rand.NewSource(seed^0x7ead))) }()

	ingestErr := func() error {
		var offsets []time.Duration
		if p.outstanding == 0 {
			meanGap := time.Duration(float64(time.Second) * float64(timedN) / float64(len(p.timed)) / p.rate)
			offsets = poisson(rand.New(rand.NewSource(seed^0x10ad)), len(p.timed), meanGap)
		}
		sentC, appliedC := warmN, warmN
		limit := int64(p.outstanding * p.timed[0].n)
		noteStats := func() error {
			var st detectd.StatsOut
			if status, err := get(ctx, ingest, s.base+"/v1/stats", &st); err != nil || status != http.StatusOK {
				return fmt.Errorf("stats: status %d, %v", status, err)
			}
			appliedC = st.Ingested
			if st.QueueDepth > lv.queueMax {
				lv.queueMax = st.QueueDepth
			}
			return nil
		}
		for i, b := range p.timed {
			if p.outstanding > 0 {
				// Closed loop: hold back while the window is full, so the
				// daemon's queue never fills and a 429 is a failure.
				for sentC-appliedC >= limit {
					if err := noteStats(); err != nil {
						return err
					}
					if sentC-appliedC >= limit {
						time.Sleep(200 * time.Microsecond)
					}
				}
				due[i] = time.Now()
			} else {
				due[i] = t0.Add(offsets[i])
				sleepUntil(due[i])
				lv.lateMS = append(lv.lateMS, ms(time.Since(due[i])))
				if i%64 == 63 {
					if err := noteStats(); err != nil {
						return err
					}
				}
			}
			sent.Store(int64(i + 1))
			t := time.Now()
			status, err := post(ctx, ingest, s.base+"/v1/ingest", p.contentType(), b.body)
			if err != nil {
				return fmt.Errorf("POST batch %d: %w", i, err)
			}
			lv.ackMS = append(lv.ackMS, ms(time.Since(t)))
			lv.attempt++
			if status != http.StatusAccepted {
				lv.failed++
				if status == http.StatusTooManyRequests {
					lv.http429++
				}
			}
			sentC += int64(b.n)
		}
		if lv.failed > 0 {
			// A refused batch never reaches the graph: waiting for N would hang.
			return fmt.Errorf("%d of %d POSTs refused (%d with 429)", lv.failed, lv.attempt, lv.http429)
		}
		if _, err := waitIngested(ctx, ingest, s, warmN+timedN); err != nil {
			return err
		}
		now := time.Now()
		lv.wallS = now.Sub(t0).Seconds()
		ingestedAt.Store(now.UnixNano())
		return nil
	}()
	if ingestErr != nil {
		ingestedAt.Store(-1) // tells the reader to give up
	}
	rdErr := <-rdDone
	if ingestErr != nil {
		return nil, ingestErr
	}
	if rdErr != nil {
		return nil, rdErr
	}

	// The final census is visible: close the cost window before the
	// harness's own verification reads add to it.
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	lv.cpuS = cpu1 - cpu0
	if lv.peakRSS, err = s.peakRSSMB(); err != nil {
		return nil, err
	}
	if _, err := get(ctx, ingest, s.base+"/v1/stats", &lv.end); err != nil {
		return nil, err
	}
	lv.freshMS, lv.readMS, lv.steps = rd.freshMS, rd.readMS, rd.steps
	lv.attempt += rd.attempt
	lv.failed += rd.failed
	if lv.census, err = fetchCensus(ctx, ingest, s, p); err != nil {
		return nil, err
	}
	return lv, nil
}

// reader issues the plan's request mix on a seeded Poisson schedule over
// its own connection. Its /v1/triangles polls are also the freshness
// probe: a batch is visible at the first poll whose watermark has
// reached the batch's newest timestamp.
type reader struct {
	s          *sut
	p          *plan
	due        []time.Time
	sent       *atomic.Int64
	ingestedAt *atomic.Int64
	lastTS     int64

	freshMS []float64
	readMS  []float64
	steps   []int
	attempt int
	failed  int
}

func (r *reader) run(ctx context.Context, t0 time.Time, rng *rand.Rand) error {
	conn := newConn()
	defer conn.CloseIdleConnections()
	meanGap := float64(time.Second) / r.p.readRate
	visible := 0 // timed batches already seen in a published watermark
	wm := int64(-1)
	next := t0
	for k := 0; r.ingestedAt.Load() >= 0; k++ { // negative: ingest gave up
		next = next.Add(time.Duration(rng.ExpFloat64() * meanGap))
		sleepUntil(next)
		path := r.p.reads[k%len(r.p.reads)]
		isTri := strings.HasPrefix(path, "/v1/triangles")
		var tr detectd.TrianglesOut
		var out any
		if isTri {
			out = &tr
		}
		status, err := get(ctx, conn, r.s.base+path, out)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		done := time.Now()
		// Timed from when the request was due, so a stalled daemon is
		// charged for the requests it made wait.
		r.readMS = append(r.readMS, ms(done.Sub(next)))
		r.attempt++
		if status != http.StatusOK {
			r.failed++
			continue
		}
		if !isTri {
			continue
		}
		if tr.Watermark > wm {
			wm = tr.Watermark
			sent := int(r.sent.Load())
			for visible < sent && r.p.timed[visible].maxTS <= wm {
				r.freshMS = append(r.freshMS, ms(done.Sub(r.due[visible])))
				visible++
			}
			if visible > 0 && (len(r.steps) == 0 || r.steps[len(r.steps)-1] < visible) {
				r.steps = append(r.steps, visible)
			}
		}
		// A survey with watermark >= lastTS can still predate the last
		// batch's application when timestamps tie; only a cycle taken
		// after ingested reached N is the final census.
		if at := r.ingestedAt.Load(); at > 0 && tr.Watermark >= r.lastTS && tr.TakenAt.UnixNano() > at {
			return nil
		}
	}
	return nil
}
