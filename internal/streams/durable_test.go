package streams

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blueprint/internal/durability"
)

const testSubID = 4

func openDurableStore(t testing.TB, dir string) (*Store, *durability.Engine) {
	t.Helper()
	s := NewStore()
	eng, err := durability.Open(dir, durability.Options{DisableFsync: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(testSubID, "streams", s); err != nil {
		t.Fatal(err)
	}
	s.SetDurable(eng.Logger(testSubID).Append)
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func publishN(t testing.TB, s *Store, stream string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Publish(Message{
			Stream: stream, Sender: "tester", Payload: map[string]any{"i": i},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// payloadI extracts the "i" counter a publishN message carries, tolerating
// the JSON round trip (numbers decode as float64).
func payloadI(m Message) string {
	p, ok := m.Payload.(map[string]any)
	if !ok {
		return fmt.Sprintf("bad payload %T", m.Payload)
	}
	return fmt.Sprint(p["i"])
}

// TestWALPersistRecover restarts a store over its write-ahead log and checks
// that stream metadata, payloads and directives come back, and that new
// appends continue the recovered logical clock and sequence numbers.
func TestWALPersistRecover(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	mustCreate(t, s, "conv", StreamInfo{Session: "s:9", Creator: "ui", Tags: []string{"conversation"}})
	mustAppend(t, s, Message{Stream: "conv", Kind: Data, Sender: "user", Payload: "I am looking for a data scientist position"})
	mustAppend(t, s, Message{Stream: "conv", Kind: Control, Sender: "ic", Directive: &Directive{Op: OpExecuteAgent, Agent: "nl2q"}})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer s2.Close()
	info, err := s2.Info("conv")
	if err != nil {
		t.Fatal(err)
	}
	if info.Session != "s:9" || info.Creator != "ui" || len(info.Tags) != 1 || info.Tags[0] != "conversation" || info.Len != 2 {
		t.Fatalf("recovered info = %+v", info)
	}
	msgs, err := s2.ReadAll("conv")
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].PayloadString() != "I am looking for a data scientist position" {
		t.Fatalf("recovered payload = %q", msgs[0].PayloadString())
	}
	if d := msgs[1].Directive; d == nil || d.Op != OpExecuteAgent || d.Agent != "nl2q" {
		t.Fatalf("recovered directive = %+v", msgs[1].Directive)
	}
	m := mustAppend(t, s2, Message{Stream: "conv", Payload: "more"})
	if m.TS <= msgs[1].TS {
		t.Fatalf("clock did not resume: new TS %d <= old %d", m.TS, msgs[1].TS)
	}
	if m.Seq != 2 {
		t.Fatalf("seq after recovery = %d, want 2", m.Seq)
	}
}

// TestEngineReplayRecoversStreams restarts a store over its engine log and
// checks that payloads, EOS state, the logical clock and message ids all
// come back.
func TestEngineReplayRecoversStreams(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	publishN(t, s, "chat", 20)
	if err := s.CloseStream("done-stream", "tester"); err == nil {
		t.Fatal("closing a missing stream should fail") // sanity
	}
	if _, err := s.Publish(Message{Stream: "done-stream", Sender: "tester", Payload: map[string]any{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseStream("done-stream", "tester"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer s2.Close()
	msgs, err := s2.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 20 {
		t.Fatalf("recovered %d messages, want 20", len(msgs))
	}
	for i, m := range msgs {
		if payloadI(m) != fmt.Sprint(i) {
			t.Fatalf("message %d payload = %v", i, payloadI(m))
		}
	}
	done, err := s2.Info("done-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !done.Closed {
		t.Fatal("EOS state lost across recovery")
	}
	// The logical clock, sequence numbers and message ids must continue
	// past the recovered history: no reused timestamps or ids.
	history := s2.History("")
	last := history[len(history)-1]
	seen := map[string]bool{}
	for _, m := range history {
		seen[m.ID] = true
	}
	m, err := s2.Publish(Message{Stream: "chat", Sender: "tester", Payload: map[string]any{"i": 20}})
	if err != nil {
		t.Fatal(err)
	}
	if m.TS <= last.TS {
		t.Fatalf("clock did not resume: new TS %d <= last recovered %d", m.TS, last.TS)
	}
	if seen[m.ID] {
		t.Fatalf("message id %s reused after recovery", m.ID)
	}
	if m.Seq != 20 {
		t.Fatalf("post-recovery Seq = %d, want 20", m.Seq)
	}
}

func TestEngineSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	publishN(t, s, "chat", 10)
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, "chat", 5) // the post-snapshot tail
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer s2.Close()
	msgs, err := s2.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 15 {
		t.Fatalf("recovered %d messages (snapshot 10 + tail 5), want 15", len(msgs))
	}
	for i, m := range msgs {
		if m.Seq != int64(i) {
			t.Fatalf("message %d has Seq %d after snapshot+replay (duplicate or gap)", i, m.Seq)
		}
	}
}

func TestSnapshotRestoreRoundTripDirect(t *testing.T) {
	s := NewStore()
	defer s.Close()
	publishN(t, s, "a", 3)
	publishN(t, s, "b", 2)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	defer s2.Close()
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for stream, want := range map[string]int{"a": 3, "b": 2} {
		msgs, err := s2.ReadAll(stream)
		if err != nil || len(msgs) != want {
			t.Fatalf("stream %s: %d messages (err %v), want %d", stream, len(msgs), err, want)
		}
	}
	if got := s2.StatsSnapshot(); got.MessagesAppended != 5 {
		t.Fatalf("restored stats count %d appends, want 5", got.MessagesAppended)
	}
}

func TestEngineTornTailPrefixForStreams(t *testing.T) {
	dir := t.TempDir()
	s, eng := openDurableStore(t, dir)
	publishN(t, s, "chat", 30)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := filepath.Join(dir, "wal-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	s2, eng2 := openDurableStore(t, dir)
	defer eng2.Close()
	defer s2.Close()
	msgs, err := s2.ReadAll("chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 || len(msgs) >= 30 {
		t.Fatalf("recovered %d messages from a 2/3 log, want a proper prefix", len(msgs))
	}
	for i, m := range msgs {
		if payloadI(m) != fmt.Sprint(i) {
			t.Fatalf("message %d is not the committed prefix: %v", i, payloadI(m))
		}
	}
}
