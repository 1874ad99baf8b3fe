package streams

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Common store errors.
var (
	ErrStreamExists   = errors.New("streams: stream already exists")
	ErrStreamNotFound = errors.New("streams: stream not found")
	ErrStreamClosed   = errors.New("streams: stream closed")
	ErrStoreClosed    = errors.New("streams: store closed")
)

// StreamInfo describes a stream as a first-class data resource.
type StreamInfo struct {
	// ID is the unique stream identifier.
	ID string `json:"id"`
	// Session is the owning session scope, if any.
	Session string `json:"session,omitempty"`
	// Tags label the stream itself (distinct from per-message tags).
	Tags []string `json:"tags,omitempty"`
	// Creator names the component that created the stream.
	Creator string `json:"creator,omitempty"`
	// Closed reports whether the stream received its EOS sentinel.
	Closed bool `json:"closed"`
	// Len is the number of messages appended so far.
	Len int64 `json:"len"`
	// CreatedTS is the logical timestamp of creation.
	CreatedTS int64 `json:"created_ts"`
}

type stream struct {
	info StreamInfo
	msgs []Message
}

// Store is an embedded streams database: it owns every stream, delivers
// messages to subscribers, tracks statistics and optionally logs every
// mutation to the shared durability engine (SetDurable). All methods are
// safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	streams map[string]*stream
	order   []string // creation order, for deterministic listing
	subs    map[int64]*Subscription
	nextSub int64
	clock   atomic.Int64
	nextMsg atomic.Int64
	closed  bool

	// sink is the shared durability engine's append (SetDurable); nil
	// keeps the store in memory only.
	sink func(payload []byte) error

	stats Stats
}

// NewStore creates an empty streams database.
func NewStore() *Store {
	return &Store{
		streams: make(map[string]*stream),
		subs:    make(map[int64]*Subscription),
	}
}

// Close shuts the store down: all subscriptions are cancelled. Appends
// after Close fail with ErrStoreClosed. The durability engine, if one is
// attached, is closed by its owner.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := make([]*Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subs = make(map[int64]*Subscription)
	s.mu.Unlock()

	for _, sub := range subs {
		sub.stop()
	}
	return nil
}

// CreateStream registers a new stream. Creating an existing id fails with
// ErrStreamExists.
func (s *Store) CreateStream(id string, info StreamInfo) (StreamInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return StreamInfo{}, ErrStoreClosed
	}
	if _, ok := s.streams[id]; ok {
		return StreamInfo{}, fmt.Errorf("%w: %s", ErrStreamExists, id)
	}
	info.ID = id
	info.Closed = false
	info.Len = 0
	info.CreatedTS = s.clock.Add(1)
	st := &stream{info: info}
	s.streams[id] = st
	s.order = append(s.order, id)
	s.stats.StreamsCreated++
	if err := s.logRecordLocked(logRecord{Type: "create", Stream: &info}); err != nil {
		return StreamInfo{}, err
	}
	return info, nil
}

// EnsureStream creates the stream if absent and returns its info.
func (s *Store) EnsureStream(id string, info StreamInfo) (StreamInfo, error) {
	got, err := s.CreateStream(id, info)
	if errors.Is(err, ErrStreamExists) {
		return s.Info(id)
	}
	return got, err
}

// Info returns the metadata of a stream.
func (s *Store) Info(id string) (StreamInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[id]
	if !ok {
		return StreamInfo{}, fmt.Errorf("%w: %s", ErrStreamNotFound, id)
	}
	return st.info, nil
}

// List returns info for every stream, in creation order, optionally
// restricted to a session scope (empty session = all).
func (s *Store) List(session string) []StreamInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]StreamInfo, 0, len(s.order))
	for _, id := range s.order {
		st := s.streams[id]
		if session != "" && !scopeContains(session, st.info.Session) {
			continue
		}
		out = append(out, st.info)
	}
	return out
}

// Append writes msg to the stream named by msg.Stream, assigning ID, Seq and
// TS, and delivers it to matching subscribers. The stream must exist and be
// open. The stored message (with assigned fields) is returned.
func (s *Store) Append(msg Message) (Message, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Message{}, ErrStoreClosed
	}
	st, ok := s.streams[msg.Stream]
	if !ok {
		s.mu.Unlock()
		return Message{}, fmt.Errorf("%w: %s", ErrStreamNotFound, msg.Stream)
	}
	if st.info.Closed {
		s.mu.Unlock()
		return Message{}, fmt.Errorf("%w: %s", ErrStreamClosed, msg.Stream)
	}
	if msg.Session == "" {
		msg.Session = st.info.Session
	}
	msg.Seq = st.info.Len
	msg.TS = s.clock.Add(1)
	msg.ID = fmt.Sprintf("m%d", s.nextMsg.Add(1))
	st.msgs = append(st.msgs, msg)
	st.info.Len++
	if msg.IsEOS() {
		st.info.Closed = true
	}
	s.stats.MessagesAppended++
	switch msg.Kind {
	case Control:
		s.stats.ControlMessages++
	case Event:
		s.stats.EventMessages++
	default:
		s.stats.DataMessages++
	}
	var targets []*Subscription
	for _, sub := range s.subs {
		if sub.filter.Matches(&msg) {
			targets = append(targets, sub)
		}
	}
	logErr := s.logRecordLocked(logRecord{Type: "append", Msg: &msg})
	s.mu.Unlock()

	if logErr != nil {
		return Message{}, logErr
	}
	for _, sub := range targets {
		sub.enqueue(msg)
	}
	return msg, nil
}

// Publish is a convenience wrapper creating the stream on demand and
// appending the message.
func (s *Store) Publish(msg Message) (Message, error) {
	if _, err := s.EnsureStream(msg.Stream, StreamInfo{Session: msg.Session, Creator: msg.Sender}); err != nil {
		return Message{}, err
	}
	return s.Append(msg)
}

// CloseStream appends the EOS sentinel, after which appends fail.
func (s *Store) CloseStream(id, sender string) error {
	_, err := s.Append(Message{
		Stream:    id,
		Kind:      Control,
		Sender:    sender,
		Directive: &Directive{Op: OpEOS},
	})
	return err
}

// Read returns up to max messages of the stream starting at offset from
// (max <= 0 means no limit). Messages are copies; mutating them does not
// affect the store.
func (s *Store) Read(id string, from int64, max int) ([]Message, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamNotFound, id)
	}
	if from < 0 {
		from = 0
	}
	if from >= int64(len(st.msgs)) {
		return nil, nil
	}
	msgs := st.msgs[from:]
	if max > 0 && max < len(msgs) {
		msgs = msgs[:max]
	}
	out := make([]Message, len(msgs))
	for i := range msgs {
		out[i] = msgs[i].Clone()
	}
	return out, nil
}

// ReadAll returns every message of the stream.
func (s *Store) ReadAll(id string) ([]Message, error) {
	return s.Read(id, 0, 0)
}

// History returns every message in the store whose session is within the
// given scope (empty scope = everything), ordered by global timestamp. It is
// the basis for flow reconstruction (Figs. 9/10) and observability.
func (s *Store) History(session string) []Message {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Message
	for _, id := range s.order {
		st := s.streams[id]
		for i := range st.msgs {
			m := &st.msgs[i]
			if session != "" && !scopeContains(session, m.Session) {
				continue
			}
			out = append(out, m.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Stats is a snapshot of store counters for observability.
type Stats struct {
	StreamsCreated   int64
	MessagesAppended int64
	DataMessages     int64
	ControlMessages  int64
	EventMessages    int64
	Subscriptions    int64
	Deliveries       int64
	Dropped          int64
}

// StatsSnapshot returns current counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Subscriptions = int64(len(s.subs))
	return st
}
