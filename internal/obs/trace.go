package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Span is one timed step of a request. Spans form a tree: the client
// request is the root, each per-server combined RPC is a child, and a
// server handler may nest its subfile I/O below that. Field writes
// happen single-threaded in the owning goroutine before End; child
// creation is safe from concurrent goroutines (collective aggregators
// fan out under one root).
//
// Spans carry wire-propagatable identity: TraceID names the whole
// request tree across processes, SpanID names this span, and ParentID
// points at the span one level up (possibly in another process). A
// TraceID of zero means the span is untraced (local-only, never
// propagated).
//
// Bytes is what the step passed on. Swept, set by a server.subfile read
// span, is what it took from the subfile to do so: more than Bytes when
// the read was sieved.
type Span struct {
	TraceID  uint64        `json:"trace_id,omitempty"`
	SpanID   uint64        `json:"span_id,omitempty"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Op       string        `json:"op,omitempty"`
	Path     string        `json:"path,omitempty"`
	Server   string        `json:"server,omitempty"`
	Bricks   int           `json:"bricks,omitempty"`
	Extents  int           `json:"extents,omitempty"`
	Bytes    int64         `json:"bytes,omitempty"`
	Swept    int64         `json:"swept,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`

	mu       sync.Mutex
	children []*Span
}

// idSource is a locked math/rand source for span identity. Tracing is
// diagnostic, not security-sensitive, so a seeded PRNG is fine; the
// lock keeps concurrent root creation race-free.
var (
	idMu     sync.Mutex
	idSource = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// NewID returns a random non-zero 64-bit identifier for traces and
// spans.
func NewID() uint64 {
	idMu.Lock()
	defer idMu.Unlock()
	for {
		if v := idSource.Uint64(); v != 0 {
			return v
		}
	}
}

// NewSpan starts an untraced root span (no trace identity; never
// propagated across the wire).
func NewSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// NewRootSpan starts a sampled root span with fresh trace and span
// identifiers. Children inherit the TraceID and link back via
// ParentID, so the whole tree can be stitched across processes.
func NewRootSpan(name string) *Span {
	s := NewSpan(name)
	s.TraceID = NewID()
	s.SpanID = NewID()
	return s
}

// TraceContext is the propagated identity of an in-flight span: the
// shared trace ID, the sending span's ID (the receiver's parent), and
// whether the trace is sampled. The zero value means "untraced".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// Context returns the span's propagatable trace context. For untraced
// spans (or a nil receiver) it returns the zero TraceContext.
func (s *Span) Context() TraceContext {
	if s == nil || s.TraceID == 0 {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.TraceID, SpanID: s.SpanID, Sampled: true}
}

// StartRemote starts a span whose parent lives in another process,
// carrying over the wire-propagated trace context. If the context is
// untraced it behaves like NewSpan.
func StartRemote(name string, tc TraceContext) *Span {
	s := NewSpan(name)
	if tc.TraceID != 0 {
		s.TraceID = tc.TraceID
		s.SpanID = NewID()
		s.ParentID = tc.SpanID
	}
	return s
}

// Child starts a sub-span. If the parent is traced the child inherits
// the TraceID, gets a fresh SpanID, and links back via ParentID.
func (s *Span) Child(name string) *Span {
	c := NewSpan(name)
	if s.TraceID != 0 {
		c.TraceID = s.TraceID
		c.SpanID = NewID()
		c.ParentID = s.SpanID
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Adopt attaches an already-built span (typically decoded from a
// response's trace trailer) as a child of s.
func (s *Span) Adopt(c *Span) {
	if c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End stamps the duration (idempotent: the first End wins).
func (s *Span) End() {
	if s.Duration == 0 {
		s.Duration = time.Since(s.Start)
	}
}

// Children returns a copy of the child spans.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Trace is one recorded request tree.
type Trace struct {
	Root *Span
}

// Spans flattens the tree depth-first (root first).
func (t *Trace) Spans() []*Span {
	if t == nil || t.Root == nil {
		return nil
	}
	var out []*Span
	var walk func(*Span)
	walk = func(s *Span) {
		out = append(out, s)
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// String renders the trace as an indented tree, one span per line.
func (t *Trace) String() string {
	if t == nil || t.Root == nil {
		return "(empty trace)"
	}
	var sb strings.Builder
	if t.Root.TraceID != 0 {
		fmt.Fprintf(&sb, "trace %016x\n", t.Root.TraceID)
	}
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s.Name)
		if s.Op != "" {
			fmt.Fprintf(&sb, " op=%s", s.Op)
		}
		if s.Path != "" {
			fmt.Fprintf(&sb, " path=%s", s.Path)
		}
		if s.Server != "" {
			fmt.Fprintf(&sb, " server=%s", s.Server)
		}
		if s.Bricks > 0 {
			fmt.Fprintf(&sb, " bricks=%d", s.Bricks)
		}
		if s.Extents > 0 {
			fmt.Fprintf(&sb, " extents=%d", s.Extents)
		}
		if s.Bytes > 0 {
			fmt.Fprintf(&sb, " bytes=%d", s.Bytes)
		}
		if s.Swept > 0 {
			fmt.Fprintf(&sb, " swept=%d", s.Swept)
		}
		fmt.Fprintf(&sb, " dur=%v\n", s.Duration.Round(time.Microsecond))
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return sb.String()
}

// TraceLog is a bounded ring of recent traces. Adding is cheap and
// safe from any goroutine; readers get copies. The storage is a true
// fixed-size circular buffer: it is allocated once at capacity and
// eviction just advances the head, never reallocating or copying.
type TraceLog struct {
	mu   sync.Mutex
	buf  []*Trace // fixed-size ring storage
	head int      // index of the oldest trace
	n    int      // live count (<= len(buf))
}

// NewTraceLog builds a log keeping the most recent capacity traces
// (minimum 1).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*Trace, capacity)}
}

// Add appends a trace, evicting the oldest past capacity.
func (l *TraceLog) Add(t *Trace) {
	if t == nil {
		return
	}
	l.mu.Lock()
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = t
		l.n++
	} else {
		l.buf[l.head] = t
		l.head = (l.head + 1) % len(l.buf)
	}
	l.mu.Unlock()
}

// Traces returns the recorded traces, oldest first.
func (l *TraceLog) Traces() []*Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Trace, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.head+i)%len(l.buf)])
	}
	return out
}

// Last returns the most recent trace, or nil.
func (l *TraceLog) Last() *Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	return l.buf[(l.head+l.n-1)%len(l.buf)]
}

// Len reports how many traces are held.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// ByTraceID returns the most recent trace whose root carries the given
// trace ID, or nil.
func (l *TraceLog) ByTraceID(id uint64) *Trace {
	if id == 0 {
		return nil
	}
	for _, t := range l.Traces() {
		if t.Root != nil && t.Root.TraceID == id {
			return t
		}
	}
	return nil
}

// Span trailer wire format (version 2): servers return their local
// span tree to the caller inside the response frame so the client can
// stitch a cross-process trace without scraping every daemon.
//
//	u8  version (2)
//	u16 span count
//	per span:
//	  u64 traceID, u64 spanID, u64 parentID
//	  i64 start unix-nanos, i64 duration nanos, i64 bytes, i64 swept
//	  u32 bricks, u32 extents
//	  u8-len name, u8-len op, u16-len path, u8-len server
//
// All integers little-endian. Version 1 lacked swept; a peer of the
// other version fails to decode the trailer and so, tracing being
// best-effort, merely goes without the remote spans. Encoding truncates long strings and
// caps the span count; decoding is strict about its own framing but
// callers treat any decode error as "no remote spans" — tracing is
// best-effort and must never fail a request.
const (
	spanTrailerVersion = 2
	maxTrailerSpans    = 512
)

// EncodeSpans serializes a span tree (depth-first from root) into the
// span trailer format. A nil root yields nil.
func EncodeSpans(root *Span) []byte {
	if root == nil {
		return nil
	}
	spans := (&Trace{Root: root}).Spans()
	if len(spans) > maxTrailerSpans {
		spans = spans[:maxTrailerSpans]
	}
	var b []byte
	b = append(b, spanTrailerVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(spans)))
	str8 := func(s string) {
		if len(s) > 255 {
			s = s[:255]
		}
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	str16 := func(s string) {
		if len(s) > 65535 {
			s = s[:65535]
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	for _, s := range spans {
		b = binary.LittleEndian.AppendUint64(b, s.TraceID)
		b = binary.LittleEndian.AppendUint64(b, s.SpanID)
		b = binary.LittleEndian.AppendUint64(b, s.ParentID)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Start.UnixNano()))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Duration))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Bytes))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Swept))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Bricks))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Extents))
		str8(s.Name)
		str8(s.Op)
		str16(s.Path)
		str8(s.Server)
	}
	return b
}

// errBadTrailer reports a malformed span trailer.
var errBadTrailer = errors.New("obs: malformed span trailer")

// DecodeSpans parses a span trailer and rebuilds the tree, returning
// the root spans (spans whose parent is not in the trailer — usually
// exactly one, the receiving process's topmost span).
func DecodeSpans(data []byte) ([]*Span, error) {
	if len(data) < 3 || data[0] != spanTrailerVersion {
		return nil, errBadTrailer
	}
	n := int(binary.LittleEndian.Uint16(data[1:3]))
	if n > maxTrailerSpans {
		return nil, errBadTrailer
	}
	p := 3
	need := func(k int) bool {
		if p+k > len(data) {
			return false
		}
		return true
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(data[p:])
		p += 8
		return v
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(data[p:])
		p += 4
		return v
	}
	spans := make([]*Span, 0, n)
	for i := 0; i < n; i++ {
		if !need(8*7 + 4*2) {
			return nil, errBadTrailer
		}
		s := &Span{}
		s.TraceID = u64()
		s.SpanID = u64()
		s.ParentID = u64()
		s.Start = time.Unix(0, int64(u64()))
		s.Duration = time.Duration(u64())
		s.Bytes = int64(u64())
		s.Swept = int64(u64())
		s.Bricks = int(u32())
		s.Extents = int(u32())
		str8 := func() (string, bool) {
			if !need(1) {
				return "", false
			}
			k := int(data[p])
			p++
			if !need(k) {
				return "", false
			}
			v := string(data[p : p+k])
			p += k
			return v, true
		}
		var ok bool
		if s.Name, ok = str8(); !ok {
			return nil, errBadTrailer
		}
		if s.Op, ok = str8(); !ok {
			return nil, errBadTrailer
		}
		if !need(2) {
			return nil, errBadTrailer
		}
		k := int(binary.LittleEndian.Uint16(data[p:]))
		p += 2
		if !need(k) {
			return nil, errBadTrailer
		}
		s.Path = string(data[p : p+k])
		p += k
		if s.Server, ok = str8(); !ok {
			return nil, errBadTrailer
		}
		spans = append(spans, s)
	}
	if p != len(data) {
		return nil, errBadTrailer
	}
	// Relink the tree: children attach to their parent span when it is
	// present in the same trailer; the rest are roots.
	byID := make(map[uint64]*Span, len(spans))
	for _, s := range spans {
		if s.SpanID != 0 {
			byID[s.SpanID] = s
		}
	}
	var roots []*Span
	for _, s := range spans {
		if p := byID[s.ParentID]; p != nil && p != s {
			p.children = append(p.children, s)
		} else {
			roots = append(roots, s)
		}
	}
	return roots, nil
}
