package streams

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Durability on the shared engine: every stream creation and append is
// one JSON document (logRecord) in the durability engine's segmented,
// CRC-framed log, which owns framing, rotation, group commit, snapshots
// and truncation; one DataDir holds every subsystem. It is the store's
// only persistence path.
//
// Replay is idempotent: append records carry their assigned Seq, so a
// record whose message is already present (because the snapshot covered
// it) is skipped — which is what lets the store log with a plain
// asynchronous Append instead of the engine's snapshot-atomic Log path.

// logRecord is one logged mutation, and one line of a snapshot.
type logRecord struct {
	// Type is "create" for stream creation or "append" for a message.
	Type   string      `json:"t"`
	Stream *StreamInfo `json:"stream,omitempty"`
	Msg    *Message    `json:"msg,omitempty"`
}

// SetDurable attaches the shared-engine sink. Attach before serving
// traffic; CreateStream and Append then log every mutation through it.
func (s *Store) SetDurable(log func(payload []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = log
}

// logRecordLocked marshals and appends one record; caller holds s.mu.
func (s *Store) logRecordLocked(rec logRecord) error {
	if s.sink == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("streams: encode log record: %w", err)
	}
	return s.sink(b)
}

// applyRecordLocked loads one log record into the store, idempotently;
// caller holds s.mu. Shared by engine replay (Apply) and snapshot load
// (Restore).
func (s *Store) applyRecordLocked(rec logRecord) {
	switch rec.Type {
	case "create":
		if rec.Stream == nil {
			return
		}
		info := *rec.Stream
		if _, ok := s.streams[info.ID]; ok {
			return // already present (snapshot covered it)
		}
		st := &stream{info: info}
		st.info.Len = 0
		st.info.Closed = false
		s.streams[info.ID] = st
		s.order = append(s.order, info.ID)
		s.stats.StreamsCreated++
		if info.CreatedTS > s.clock.Load() {
			s.clock.Store(info.CreatedTS)
		}
	case "append":
		if rec.Msg == nil {
			return
		}
		m := *rec.Msg
		st, ok := s.streams[m.Stream]
		if !ok {
			return
		}
		if m.Seq < st.info.Len {
			return // already present (snapshot covered it)
		}
		m.Seq = st.info.Len
		st.msgs = append(st.msgs, m)
		st.info.Len++
		if m.IsEOS() {
			st.info.Closed = true
		}
		s.stats.MessagesAppended++
		switch m.Kind {
		case Control:
			s.stats.ControlMessages++
		case Event:
			s.stats.EventMessages++
		default:
			s.stats.DataMessages++
		}
		if m.TS > s.clock.Load() {
			s.clock.Store(m.TS)
		}
		var n int64
		if _, err := fmt.Sscanf(m.ID, "m%d", &n); err == nil && n > s.nextMsg.Load() {
			s.nextMsg.Store(n)
		}
	}
}

// Apply replays one engine log record. It implements durability.Loggable.
func (s *Store) Apply(rec []byte) error {
	var r logRecord
	if err := json.Unmarshal(rec, &r); err != nil {
		return fmt.Errorf("streams: decode log record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyRecordLocked(r)
	return nil
}

// Snapshot serializes every stream and message as a replayable record
// sequence. It implements durability.Loggable.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, id := range s.order {
		st := s.streams[id]
		info := st.info
		if err := enc.Encode(logRecord{Type: "create", Stream: &info}); err != nil {
			return err
		}
		for i := range st.msgs {
			if err := enc.Encode(logRecord{Type: "append", Msg: &st.msgs[i]}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Restore loads a Snapshot into the (fresh) store. It implements
// durability.Loggable.
func (s *Store) Restore(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var rec logRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("streams: decode snapshot: %w", err)
		}
		s.applyRecordLocked(rec)
	}
}
