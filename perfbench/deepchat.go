package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blueprint"
	"blueprint/internal/obs"
	"blueprint/internal/workload"
)

// deep-chat: each client owns one long-lived session, aged in setup by real
// asks, then asks a fixed count more from a small hot set of texts. The run
// is bounded by that count, not by time, so a faster build does not age the
// sessions further than a slower one: both measure the same depths.
const (
	// deepDepth is how many asks each session has answered before timing.
	deepDepth = 1500
	// deepHotTexts is the size of the hot set of texts.
	deepHotTexts = 8
	// deepAsksPerSecond sizes the timed phase: each client asks this many
	// times per second of --seconds, spread over the rounds.
	deepAsksPerSecond = 120
)

func deepChatRound(e env) (*round, error) {
	r := &round{}
	t0 := time.Now()
	sys, err := blueprint.New(blueprint.Config{Seed: 42, ModelAccuracy: 1.0})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	hot := make([]string, 0, deepHotTexts)
	for _, q := range workload.Queries(textSeed, deepHotTexts) {
		hot = append(hot, q.Text)
	}
	orc, err := buildOracle(sys, hot, e.sessions)
	if err != nil {
		return nil, err
	}
	sessions := make([]*blueprint.Session, clients)
	for i := range sessions {
		if sessions[i], err = e.sessions.start(sys); err != nil {
			return nil, err
		}
	}
	// Pre-age the sessions concurrently, one goroutine per session.
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			texts := deck{rng: rand.New(rand.NewSource(e.seed*31 + int64(i))), n: len(hot)}
			for k := 0; k < deepDepth && errs[i] == nil; k++ {
				_, errs[i] = sess.Ask(hot[texts.next()], askTimeout)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pre-age: %w", err)
		}
	}
	r.setup = time.Since(t0)

	perClient := max(1, deepAsksPerSecond*e.seconds/rounds)
	lat := make([][]time.Duration, clients)
	good := make([]int, clients)
	startRound(r, sys)
	start := time.Now()
	for i, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			texts := deck{rng: rand.New(rand.NewSource(e.seed*977 + int64(i))), n: len(hot)}
			var p pending
			for k := 0; k < perClient; k++ {
				text := hot[texts.next()]
				d, ok := timedAsk(sess, text, orc, e.tr, &p)
				lat[i] = append(lat[i], d)
				if ok {
					good[i]++
				}
			}
			e.tr.drain(&p)
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	finishRound(r, sys)
	for i := range lat {
		r.asks = append(r.asks, lat[i]...)
		r.good += good[i]
	}
	r.wrong = int(orc.wrong.Load())
	for _, sess := range sessions {
		e.sessions.close(sess)
	}
	return r, nil
}

// timedAsk asks text in process, checks the answer and, in a traced round,
// queues the ask for the ledger. It reports the latency and whether the
// answer was right.
func timedAsk(sess *blueprint.Session, text string, orc *oracle, tr *tracer, p *pending) (time.Duration, bool) {
	tid := obs.NewTraceID(sess.ID)
	ctx := obs.WithTraceID(context.Background(), tid)
	t := time.Now()
	out, err := sess.AskCtx(ctx, text, askTimeout)
	end := time.Now()
	if tr != nil {
		tr.add(p, askRef{session: sess.ID, trace: tid, start: t, end: end})
	}
	return end.Sub(t), err == nil && orc.check(text, out)
}
