// Package keeper reproduces the SecureKeeper workload (§5.2.4): a proxy
// enclave sitting between clients and a ZooKeeper-like coordination
// service, transparently en-/decrypting the path and payload of every
// packet. The enclave interface is deliberately narrow — two ecalls whose
// executions are comfortably longer than a transition — which is why the
// paper finds nothing to optimise and instead uses the workload to
// exercise histograms (Fig. 7), scatter plots (Fig. 8), sync-ocall
// tracking and working-set estimation.
package keeper

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sgxperf/internal/sgx"
)

// ZK op codes, a subset of ZooKeeper's wire protocol.
type ZKOp int

// Operations.
const (
	OpCreate ZKOp = iota + 1
	OpSetData
	OpGetData
	OpGetChildren
	OpExists
	OpDelete
)

// String names the op.
func (o ZKOp) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpSetData:
		return "setData"
	case OpGetData:
		return "getData"
	case OpGetChildren:
		return "getChildren"
	case OpExists:
		return "exists"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// ZK errors.
var (
	ErrNodeExists   = errors.New("keeper: node exists")
	ErrNoNode       = errors.New("keeper: no node")
	ErrBadVersion   = errors.New("keeper: version mismatch")
	ErrNotEmpty     = errors.New("keeper: node has children")
	ErrBadPath      = errors.New("keeper: bad path")
	ErrNoParentNode = errors.New("keeper: parent does not exist")
)

// znode is one node in the hierarchy.
type znode struct {
	data     []byte
	version  int
	children map[string]*znode
}

// ZKStore is the untrusted ZooKeeper stand-in: a hierarchical,
// version-checked key-value tree with per-operation virtual costs.
type ZKStore struct {
	opCost time.Duration

	mu   sync.Mutex
	root *znode
	ops  uint64
}

// NewZKStore creates an empty tree.
func NewZKStore() *ZKStore {
	return &ZKStore{
		opCost: 3 * time.Microsecond,
		root:   &znode{children: make(map[string]*znode)},
	}
}

// Ops returns the number of operations served.
func (s *ZKStore) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") || path == "" {
		return nil, ErrBadPath
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	for _, p := range parts {
		if p == "" {
			return nil, ErrBadPath
		}
	}
	return parts, nil
}

func (s *ZKStore) lookup(parts []string) (*znode, bool) {
	n := s.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return nil, false
		}
		n = child
	}
	return n, true
}

// Request is one ZK operation.
type Request struct {
	Op      ZKOp
	Path    string
	Data    []byte
	Version int // -1 skips the version check
}

// Response is the result of a ZK operation.
type Response struct {
	Err      string
	Data     []byte
	Version  int
	Children []string
	Exists   bool
}

// Apply executes one request, charging the calling thread. A getData
// response's Data is a fresh copy of the znode's data.
func (s *ZKStore) Apply(ctx *sgx.Context, req Request) Response {
	return s.apply(ctx, req, nil)
}

// apply is Apply with getData's copy made in room, whose array the
// copy reuses when it is large enough. setData overwrites the znode's
// data in the node's own buffer, so no znode's data escapes the store.
func (s *ZKStore) apply(ctx *sgx.Context, req Request, room []byte) Response {
	ctx.Compute(s.opCost + time.Duration(len(req.Data))*8*time.Nanosecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++

	parts, err := splitPath(req.Path)
	if err != nil {
		return Response{Err: err.Error()}
	}
	switch req.Op {
	case OpCreate:
		if len(parts) == 0 {
			return Response{Err: ErrNodeExists.Error()}
		}
		parent, ok := s.lookup(parts[:len(parts)-1])
		if !ok {
			return Response{Err: ErrNoParentNode.Error()}
		}
		name := parts[len(parts)-1]
		if _, dup := parent.children[name]; dup {
			return Response{Err: ErrNodeExists.Error()}
		}
		parent.children[name] = &znode{
			data:     append([]byte(nil), req.Data...),
			children: make(map[string]*znode),
		}
		return Response{Version: 0}
	case OpSetData:
		n, ok := s.lookup(parts)
		if !ok {
			return Response{Err: ErrNoNode.Error()}
		}
		if req.Version >= 0 && req.Version != n.version {
			return Response{Err: ErrBadVersion.Error()}
		}
		n.data = append(n.data[:0], req.Data...)
		n.version++
		return Response{Version: n.version}
	case OpGetData:
		n, ok := s.lookup(parts)
		if !ok {
			return Response{Err: ErrNoNode.Error()}
		}
		return Response{Data: append(room[:0], n.data...), Version: n.version}
	case OpGetChildren:
		n, ok := s.lookup(parts)
		if !ok {
			return Response{Err: ErrNoNode.Error()}
		}
		kids := make([]string, 0, len(n.children))
		for k := range n.children {
			kids = append(kids, k)
		}
		sort.Strings(kids)
		return Response{Children: kids}
	case OpExists:
		_, ok := s.lookup(parts)
		return Response{Exists: ok}
	case OpDelete:
		if len(parts) == 0 {
			return Response{Err: ErrBadPath.Error()}
		}
		parent, ok := s.lookup(parts[:len(parts)-1])
		if !ok {
			return Response{Err: ErrNoNode.Error()}
		}
		name := parts[len(parts)-1]
		n, ok := parent.children[name]
		if !ok {
			return Response{Err: ErrNoNode.Error()}
		}
		if req.Version >= 0 && req.Version != n.version {
			return Response{Err: ErrBadVersion.Error()}
		}
		if len(n.children) > 0 {
			return Response{Err: ErrNotEmpty.Error()}
		}
		delete(parent.children, name)
		return Response{}
	default:
		return Response{Err: fmt.Sprintf("keeper: unknown op %d", req.Op)}
	}
}
