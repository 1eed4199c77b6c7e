package wfms

import (
	"sort"
	"strings"

	"fedwf/internal/types"
)

// template is a Process compiled for navigation, the way a workflow
// system translates a process model once and lets every instance navigate
// the stored translation: each name a run would look up is resolved to a
// node index, and each key it would fold is folded, so an instance keeps
// its state in slices.
type template struct {
	p      *Process
	nodes  []tnode
	conns  []tconn
	order  []int // a topological order: declaration order among ready nodes
	result int   // the node whose container becomes the process output
	vector bool  // vectorizable(p)
	// fields are the lower-case input container fields the process
	// declares, for folding keys a block's Feedback hands back.
	fields []string
}

// tnode is one compiled node.
type tnode struct {
	node  Node
	name  string // as declared, for the audit trail and errors
	key   string // lower-case: the helper activities' container key
	preds []int  // incoming connectors, indices into template.conns
	succs []int  // outgoing connectors
	any   bool   // StartAny: an OR-join
	// snapshot marks a node that may read a container other than its
	// control ancestors': a helper sees every done node. It runs on a copy
	// of the containers taken at its launch; any other node reads the
	// live ones, which the navigator wrote before the launch and never
	// writes again.
	snapshot bool
	// args bind a function activity's parameters, or a block's first
	// input container (whose lower-case fields are blockKeys).
	args      []targ
	blockKeys []string
	groups    int       // a function activity's distinct producing nodes
	body      *template // a block's sub-process
}

// tconn is one compiled control connector.
type tconn struct {
	from, to int
	cond     func(out *types.Table) (bool, error)
}

// targ is one compiled argument source.
type targ struct {
	src   Source // as declared, for errors
	node  int    // FromNode: the producing node
	key   string // FromInput: the lower-case field
	group int    // FromNode: the same-node group it aligns with; -1 otherwise
}

// compile validates p and translates it into a template; blocks' bodies
// are compiled with it.
func compile(p *Process) (*template, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &template{
		p:      p,
		nodes:  make([]tnode, len(p.Nodes)),
		conns:  make([]tconn, len(p.Flow)),
		vector: vectorizable(p),
		fields: make([]string, len(p.Input)),
	}
	for i, f := range p.Input {
		t.fields[i] = strings.ToLower(f.Name)
	}
	index := make(map[string]int, len(p.Nodes))
	for i, n := range p.Nodes {
		key := strings.ToLower(n.NodeName())
		index[key] = i
		t.nodes[i] = tnode{node: n, name: n.NodeName(), key: key}
	}
	for name, sc := range p.Starts {
		if i, ok := index[strings.ToLower(name)]; ok {
			t.nodes[i].any = sc == StartAny
		}
	}
	for c, cc := range p.Flow {
		from, to := index[strings.ToLower(cc.From)], index[strings.ToLower(cc.To)]
		t.conns[c] = tconn{from: from, to: to, cond: cc.Condition}
		t.nodes[from].succs = append(t.nodes[from].succs, c)
		t.nodes[to].preds = append(t.nodes[to].preds, c)
	}
	t.result = index[strings.ToLower(p.Result)]
	arg := func(s Source) targ {
		a := targ{src: s, group: -1}
		switch s.Kind {
		case FromInput:
			a.key = strings.ToLower(s.Column)
		case FromNode:
			a.node = index[strings.ToLower(s.Node)]
		}
		return a
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		switch n := nd.node.(type) {
		case *FunctionActivity:
			// Columns of one producing node stay row-aligned: its
			// arguments share a group, and groups combine by cross
			// product.
			groupOf := map[int]int{}
			for _, s := range n.Args {
				a := arg(s)
				if s.Kind == FromNode {
					g, ok := groupOf[a.node]
					if !ok {
						g = len(groupOf)
						groupOf[a.node] = g
					}
					a.group = g
				}
				nd.args = append(nd.args, a)
			}
			nd.groups = len(groupOf)
		case *Block:
			body, err := compile(n.Body)
			if err != nil {
				return nil, err
			}
			nd.body = body
			fields := make([]string, 0, len(n.Args))
			for f := range n.Args {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				nd.blockKeys = append(nd.blockKeys, strings.ToLower(f))
				nd.args = append(nd.args, arg(n.Args[f]))
			}
		}
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		_, helper := nd.node.(*HelperActivity)
		nd.snapshot = helper
		for _, a := range nd.args {
			if a.src.Kind == FromNode && !t.precedes(a.node, i) {
				nd.snapshot = true
			}
		}
	}
	t.order = t.topoOrder()
	return t, nil
}

// precedes reports whether a control path leads from node a to node i.
func (t *template) precedes(a, i int) bool {
	seen := make([]bool, len(t.nodes))
	stack := []int{i}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.nodes[x].preds {
			from := t.conns[c].from
			if from == a {
				return true
			}
			if !seen[from] {
				seen[from] = true
				stack = append(stack, from)
			}
		}
	}
	return false
}

// topoOrder orders the nodes in passes over the declaration order, each
// pass taking every node whose predecessors are all taken.
func (t *template) topoOrder() []int {
	pending := make([]int, len(t.nodes))
	for i := range t.nodes {
		pending[i] = len(t.nodes[i].preds)
	}
	order := make([]int, 0, len(t.nodes))
	done := make([]bool, len(t.nodes))
	for len(order) < len(t.nodes) {
		progressed := false
		for i := range t.nodes {
			if done[i] || pending[i] != 0 {
				continue
			}
			done[i] = true
			order = append(order, i)
			for _, c := range t.nodes[i].succs {
				pending[t.conns[c].to]--
			}
			progressed = true
		}
		if !progressed {
			// Unreachable: Validate rejects cyclic processes.
			break
		}
	}
	return order
}

// fieldKey folds a field name a block's Feedback hands back: to the
// declared field it names, else (an undeclared field, which only helper
// activities see) to its lower case.
func (t *template) fieldKey(name string) string {
	for _, f := range t.fields {
		if strings.EqualFold(f, name) {
			return f
		}
	}
	return strings.ToLower(name)
}
