// Package coord implements the coordination service HydraDB's high-
// availability layer depends on (paper §5.1): a ZooKeeper-style hierarchical
// namespace of znodes with ephemeral and sequential nodes, watches, and
// heartbeat-expired sessions, plus the leader-election recipe the SWAT group
// uses.
//
// The paper deploys a 3–5 machine ZooKeeper ensemble; HydraDB only consumes
// a small slice of its feature set — ephemeral liveness nodes, watches on
// status changes, and leader election — which is exactly what this package
// provides. The service is linearizable by construction (a single mutex
// guards the tree; every mutation is a critical section), standing in for
// the ensemble's replicated consensus.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hydradb/internal/timing"
)

// Errors mirror the ZooKeeper error model.
var (
	ErrNoNode         = errors.New("coord: node does not exist")
	ErrNodeExists     = errors.New("coord: node already exists")
	ErrNotEmpty       = errors.New("coord: node has children")
	ErrSessionExpired = errors.New("coord: session expired")
	ErrBadPath        = errors.New("coord: malformed path")
)

// CreateFlags modify Create.
type CreateFlags int

// Flag values.
const (
	FlagPersistent CreateFlags = 0
	FlagEphemeral  CreateFlags = 1 << iota
	FlagSequential
)

// EventType identifies a watch notification.
type EventType int

// Event types.
const (
	EventCreated EventType = iota + 1
	EventDeleted
	EventChildrenChanged
	EventSessionExpired
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventChildrenChanged:
		return "children-changed"
	case EventSessionExpired:
		return "session-expired"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is a watch notification.
type Event struct {
	Type EventType
	Path string
}

type znode struct {
	data     []byte
	children map[string]*znode
	owner    int64 // ephemeral owner session, 0 = persistent
	seqNext  int64 // counter for sequential children
}

type watcher struct {
	path      string // prefix: node itself and its direct children
	ch        chan Event
	sessionID int64
}

// Server is the coordination service.
type Server struct {
	mu       sync.Mutex
	root     *znode
	sessions map[int64]*sessionState
	watchers map[int64]*watcher
	nextSess int64
	nextWat  int64
	clock    timing.Clock
	timeout  int64 // session timeout in ns
}

type sessionState struct {
	id       int64
	lastPing int64
	expired  bool
	ephem    map[string]bool
}

// NewServer creates a service whose sessions expire after timeoutNs without
// a heartbeat, judged against clk.
func NewServer(clk timing.Clock, timeoutNs int64) *Server {
	if timeoutNs <= 0 {
		timeoutNs = 2e9
	}
	return &Server{
		root:     &znode{children: map[string]*znode{}},
		sessions: map[int64]*sessionState{},
		watchers: map[int64]*watcher{},
		clock:    clk,
		timeout:  timeoutNs,
	}
}

// split validates and segments a path like /hydra/shards/s1.
func split(path string) ([]string, error) {
	if path == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") || strings.Contains(path, "//") {
		return nil, ErrBadPath
	}
	return strings.Split(path[1:], "/"), nil
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// lookup walks to a node; caller holds the lock.
func (s *Server) lookup(path string) (*znode, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	n := s.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return nil, ErrNoNode
		}
		n = child
	}
	return n, nil
}

// notify fires watchers registered on path or its parent; caller holds lock.
func (s *Server) notify(t EventType, path string) {
	parent := parentOf(path)
	for _, w := range s.watchers {
		if w.path == path || w.path == parent {
			ev := Event{Type: t, Path: path}
			select {
			case w.ch <- ev:
			default:
				// Watcher queue overflow: drop the oldest to keep the newest
				// (level-triggered consumers re-read state anyway).
				select {
				case <-w.ch:
				default:
				}
				select {
				case w.ch <- ev:
				default:
				}
			}
		}
	}
}

// Session is a client handle.
type Session struct {
	srv *Server
	id  int64
}

// NewSession opens a session.
func (s *Server) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSess++
	id := s.nextSess
	s.sessions[id] = &sessionState{
		id:       id,
		lastPing: s.clock.Now(),
		ephem:    map[string]bool{},
	}
	return &Session{srv: s, id: id}
}

// ID reports the session identity.
func (c *Session) ID() int64 { return c.id }

func (s *Server) state(id int64) (*sessionState, error) {
	st, ok := s.sessions[id]
	if !ok || st.expired {
		return nil, ErrSessionExpired
	}
	return st, nil
}

// Ping refreshes the session heartbeat.
func (c *Session) Ping() error {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.state(c.id)
	if err != nil {
		return err
	}
	st.lastPing = s.clock.Now()
	return nil
}

// Create adds a node. With FlagSequential a 10-digit counter is appended and
// the actual path returned. Parents must exist.
func (c *Session) Create(path string, data []byte, flags CreateFlags) (string, error) {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.state(c.id)
	if err != nil {
		return "", err
	}
	parts, err := split(path)
	if err != nil || len(parts) == 0 {
		return "", ErrBadPath
	}
	parentPath := parentOf(path)
	parent, err := s.lookup(parentPath)
	if err != nil {
		return "", err
	}
	name := parts[len(parts)-1]
	if flags&FlagSequential != 0 {
		name = fmt.Sprintf("%s%010d", name, parent.seqNext)
		parent.seqNext++
		if parentPath == "/" {
			path = "/" + name
		} else {
			path = parentPath + "/" + name
		}
	}
	if _, exists := parent.children[name]; exists {
		return "", ErrNodeExists
	}
	n := &znode{data: append([]byte(nil), data...), children: map[string]*znode{}}
	if flags&FlagEphemeral != 0 {
		n.owner = c.id
		st.ephem[path] = true
	}
	parent.children[name] = n
	s.notify(EventCreated, path)
	s.notify(EventChildrenChanged, parentPath)
	return path, nil
}

// Get reads a node's data.
func (c *Session) Get(path string) ([]byte, error) {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.state(c.id); err != nil {
		return nil, err
	}
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), n.data...), nil
}

// Delete removes a node.
func (c *Session) Delete(path string) error {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.state(c.id); err != nil {
		return err
	}
	return s.deleteLocked(path)
}

func (s *Server) deleteLocked(path string) error {
	n, err := s.lookup(path)
	if err != nil {
		return err
	}
	if len(n.children) > 0 {
		return ErrNotEmpty
	}
	parentPath := parentOf(path)
	parent, err := s.lookup(parentPath)
	if err != nil {
		return err
	}
	parts, _ := split(path) //hydralint:ignore error-discipline path already validated by the lookup above
	delete(parent.children, parts[len(parts)-1])
	if n.owner != 0 {
		if owner, ok := s.sessions[n.owner]; ok {
			delete(owner.ephem, path)
		}
	}
	s.notify(EventDeleted, path)
	s.notify(EventChildrenChanged, parentPath)
	return nil
}

// Children lists a node's children, sorted.
func (c *Session) Children(path string) ([]string, error) {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.state(c.id); err != nil {
		return nil, err
	}
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Watch subscribes to events on path: creation/deletion/data changes of the
// node and membership changes of its children. Unlike ZooKeeper's one-shot
// watches these are persistent until Unwatch; under overflow the oldest
// event is dropped (consumers are level-triggered and re-read state).
func (c *Session) Watch(path string) (<-chan Event, func(), error) {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.state(c.id); err != nil {
		return nil, nil, err
	}
	s.nextWat++
	id := s.nextWat
	w := &watcher{path: path, ch: make(chan Event, 128), sessionID: c.id}
	s.watchers[id] = w
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.watchers, id)
	}
	return w.ch, cancel, nil
}

// Close expires the session immediately, deleting its ephemerals.
func (c *Session) Close() {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.sessions[c.id]; ok && !st.expired {
		s.expireLocked(st)
	}
}

// Tick expires sessions whose heartbeat lapsed; the live server calls this
// from a ticker goroutine, tests call it after advancing a manual clock.
// It returns the number of sessions expired.
func (s *Server) Tick() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	n := 0
	for _, st := range s.sessions {
		if !st.expired && now-st.lastPing > s.timeout {
			s.expireLocked(st)
			n++
		}
	}
	return n
}

// expireLocked removes a session's ephemerals and notifies its watchers.
func (s *Server) expireLocked(st *sessionState) {
	st.expired = true
	paths := make([]string, 0, len(st.ephem))
	for p := range st.ephem {
		paths = append(paths, p)
	}
	// Delete deepest-first so parents empty out.
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	for _, p := range paths {
		//hydralint:ignore error-discipline best-effort ephemeral cleanup on session expiry; a non-empty dir is simply kept
		_ = s.deleteLocked(p)
	}
	for id, w := range s.watchers {
		if w.sessionID == st.id {
			select {
			case w.ch <- Event{Type: EventSessionExpired}:
			default:
			}
			delete(s.watchers, id)
		}
	}
}

// SessionAlive reports whether a session is live (test/SWAT introspection).
func (s *Server) SessionAlive(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sessions[id]
	return ok && !st.expired
}

// EnsurePath creates every missing component of path as a persistent node.
func (c *Session) EnsurePath(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if _, err := c.Create(cur, nil, FlagPersistent); err != nil && err != ErrNodeExists {
			return err
		}
	}
	return nil
}
