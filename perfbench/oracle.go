package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueprint"
)

// askTimeout bounds one ask; an ask that takes longer counts as failed.
const askTimeout = 10 * time.Second

// oracle holds the expected answer of every distinct text a workload asks:
// the answer the text gets alone, on a fresh session. A timed answer that
// differs — typically the answer to another question asked on the same
// session, or an output of this question other than the one it gave
// alone — counts as wrong.
type oracle struct {
	want  map[string]string
	wrong atomic.Int64
}

// buildOracle asks each distinct text once on its own fresh session,
// closing the session afterwards so the resident population is unchanged.
func buildOracle(sys *blueprint.System, texts []string, sessions *sessionTimes) (*oracle, error) {
	o := &oracle{want: map[string]string{}}
	for _, text := range texts {
		if _, ok := o.want[text]; ok {
			continue
		}
		sess, err := sessions.start(sys)
		if err != nil {
			return nil, err
		}
		out, err := sess.Ask(text, askTimeout)
		sessions.close(sess)
		if err != nil {
			return nil, fmt.Errorf("oracle ask %q: %w", text, err)
		}
		o.want[text] = out
	}
	return o, nil
}

// check reports whether got is the expected answer to text, counting a
// mismatch as a wrong answer.
func (o *oracle) check(text, got string) bool {
	if want, ok := o.want[text]; ok && want == got {
		return true
	}
	o.wrong.Add(1)
	return false
}

// sessionTimes records how long session starts and closes take.
type sessionTimes struct {
	mu           sync.Mutex
	starts, ends []time.Duration
}

func (st *sessionTimes) add(to *[]time.Duration, d time.Duration) {
	st.mu.Lock()
	*to = append(*to, d)
	st.mu.Unlock()
}

func (st *sessionTimes) start(sys *blueprint.System) (*blueprint.Session, error) {
	t := time.Now()
	sess, err := sys.StartSession("")
	if err != nil {
		return nil, fmt.Errorf("start session: %w", err)
	}
	st.add(&st.starts, time.Since(t))
	return sess, nil
}

func (st *sessionTimes) close(sess *blueprint.Session) {
	t := time.Now()
	sess.Close()
	st.add(&st.ends, time.Since(t))
}
