package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"blueprint"
)

// write-mix: clients ask summarize and city questions about a fixed job set
// from short-lived sessions, and interleave relational writes on
// applications of jobs outside that set, with durability on. The answers
// stay checkable against the oracle while every write invalidates the
// memoized results the asks would otherwise reuse.
//
// Each session serves one ask and is closed. A summarize or rank ask posts
// two display messages, and the late one becomes the answer to the next
// ask on its session; which ask gets which message depends on timing, so
// on longer sessions the count of wrong answers differs between runs of the
// same inputs. Rank questions are left out for the same reason: a memoized
// rank step answers with its raw ranking first.
const (
	// writeEvery makes every writeEvery-th op of a client a write.
	writeEvery = 4
	// jobSet is how many jobs (of ids 1..100) the asks are about; writes
	// go to applications of jobs 101..200.
	jobSet = 12
	// cityTexts is how many city questions join the job questions.
	cityTexts = 5
	// writeOpsPerSecond sizes the timed phase: each client runs this many
	// ops per second of --seconds, spread over the rounds.
	writeOpsPerSecond = 350
	// firstWriteID is the first application id the writes insert; the
	// generated enterprise stays far below it.
	firstWriteID = 1_000_000
)

// cities are the cities the city questions name. San Jose is not among
// them: the pipeline answers "How many jobs are in San Jose?" with the
// count of all applications, which every insert changes, so no fixed
// oracle answer exists for it.
var cities = []string{
	"San Francisco", "Oakland", "Seattle", "New York",
	"Austin", "Denver", "Chicago", "Boston", "Los Angeles",
}

var statuses = []string{"applied", "screened", "interview", "offer", "rejected"}

// writeMixTexts draws the job set and cities. Runs draw them with textSeed,
// so every run asks from the same pool: the jobs' applicant counts set what
// a summarize costs.
func writeMixTexts(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var texts []string
	for _, id := range rng.Perm(100)[:jobSet] {
		texts = append(texts, fmt.Sprintf("Summarize the applicants for job %d", id+1))
	}
	for _, i := range rng.Perm(len(cities))[:cityTexts] {
		texts = append(texts, fmt.Sprintf("How many jobs are in %s?", cities[i]))
	}
	return texts
}

// wop is one op of a write-mix client: an ask of text, or a write of the
// application id — an INSERT with the other fields, or an UPDATE of its
// status.
type wop struct {
	write, update bool
	text          int
	id            int64
	job, years    int
	profile       string
	status        string
	score         float64
}

// writeMixOps draws client c's n ops from the seed. Every writeEvery-th op
// is a write: an INSERT of a new application to a job outside the asked
// set or — every other write, once the client has inserted a row — an
// UPDATE of the status of one of its own rows. The other ops ask the
// pool's texts in deck order.
func writeMixOps(seed int64, c, n, texts int) []wop {
	rng := rand.New(rand.NewSource(seed*613 + int64(c)))
	pool := deck{rng: rng, n: texts}
	var inserted []int64
	ops := make([]wop, n)
	for k := range ops {
		if k%writeEvery != writeEvery-1 {
			ops[k] = wop{text: pool.next()}
			continue
		}
		o := wop{write: true, status: statuses[rng.Intn(len(statuses))]}
		if (k/writeEvery)%2 == 1 && len(inserted) > 0 {
			o.update, o.id = true, inserted[rng.Intn(len(inserted))]
		} else {
			o.id = int64(firstWriteID + c*10_000_000 + k)
			o.job, o.profile = 101+rng.Intn(100), fmt.Sprintf("p%04d", 1+rng.Intn(100))
			o.score, o.years = 0.3+rng.Float64()*0.7, rng.Intn(20)
			inserted = append(inserted, o.id)
		}
		ops[k] = o
	}
	return ops
}

func writeMixRound(e env) (*round, error) {
	dir, err := os.MkdirTemp(e.work, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &round{}
	t0 := time.Now()
	sys, err := blueprint.New(blueprint.Config{Seed: 42, ModelAccuracy: 1.0, DataDir: filepath.Join(dir, "wal")})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	texts := writeMixTexts(textSeed)
	orc, err := buildOracle(sys, texts, e.sessions)
	if err != nil {
		return nil, err
	}
	base, err := countRows(sys, "SELECT COUNT(*) FROM applications")
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)

	opsPerClient := max(writeEvery, writeOpsPerSecond*e.seconds/rounds)
	type clientResult struct {
		asks, writes           []time.Duration
		good, wfailed, inserts int
		problem, broken        error
	}
	res := make([]clientResult, clients)
	startRound(r, sys)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range res {
		ops := writeMixOps(e.seed, i, opsPerClient, len(texts))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &res[i]
			var p pending
			for _, o := range ops {
				if o.write {
					d, err := write(sys, o)
					c.writes = append(c.writes, d)
					switch {
					case err != nil:
						c.wfailed++
						c.problem = err
					case !o.update:
						c.inserts++
					}
					continue
				}
				sess, err := e.sessions.start(sys)
				if err != nil {
					c.broken = err
					return
				}
				text := texts[o.text]
				d, ok := timedAsk(sess, text, orc, e.tr, &p)
				c.asks = append(c.asks, d)
				if ok {
					c.good++
				}
				e.sessions.close(sess)
			}
			e.tr.drain(&p)
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	finishRound(r, sys)

	inserts := 0
	for _, c := range res {
		if c.broken != nil {
			return nil, c.broken
		}
		r.asks = append(r.asks, c.asks...)
		r.writes = append(r.writes, c.writes...)
		r.good += c.good
		r.wfailed += c.wfailed
		inserts += c.inserts
		if c.problem != nil {
			r.problem = c.problem
		}
	}
	r.wrong = int(orc.wrong.Load())
	// Every insert must be there, and no other row may have appeared.
	after, err := countRows(sys, "SELECT COUNT(*) FROM applications")
	if err != nil {
		return nil, err
	}
	if after != base+inserts && r.problem == nil {
		r.problem = fmt.Errorf("applications has %d rows after %d inserts into %d", after, inserts, base)
	}
	return r, nil
}

// write runs one write op. It returns the latency and an error when the
// write failed or did not touch exactly one row.
func write(sys *blueprint.System, o wop) (time.Duration, error) {
	db := sys.Enterprise.DB
	var (
		n   int
		err error
	)
	t := time.Now()
	if o.update {
		n, err = db.Exec("UPDATE applications SET status = ? WHERE id = ?", o.status, o.id)
	} else {
		n, err = db.Exec("INSERT INTO applications VALUES (?, ?, ?, ?, ?, ?)",
			o.id, o.job, o.profile, o.status, o.score, o.years)
	}
	d := time.Since(t)
	if err != nil {
		return d, fmt.Errorf("write: %w", err)
	}
	if n != 1 {
		return d, fmt.Errorf("write touched %d rows, want 1", n)
	}
	return d, nil
}

func countRows(sys *blueprint.System, sql string) (int, error) {
	res, err := sys.Enterprise.DB.Query(sql)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: unexpected shape", sql)
	}
	return strconv.Atoi(fmt.Sprint(res.Rows[0][0]))
}

// writeMixMetrics adds the write latencies, pooled over the rounds.
func writeMixMetrics(m metrics, rs []*round) error {
	var all []time.Duration
	for _, r := range rs {
		all = append(all, r.writes...)
	}
	m.set("relational.exec_ms", meanMS(all), "ms")
	m.set("writes.sent", float64(len(all)), "count")
	// A traced run's untraced round alone is too short for a write p99;
	// the write latencies are then left out.
	p50, err50 := percentile(all, 0.50)
	p99, err99 := percentile(all, 0.99)
	if err50 == nil && err99 == nil {
		m.set("write_p50_ms", p50, "ms")
		m.set("write_p99_ms", p99, "ms")
	}
	return nil
}
