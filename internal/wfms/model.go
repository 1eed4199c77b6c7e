// Package wfms implements the workflow management system of the paper's
// integration server: a production-workflow engine in the style of IBM MQ
// Series Workflow (Leymann/Roller). Process templates consist of
// activities (local function calls and helper activities), control
// connectors with transition conditions (AND-join with dead-path
// elimination), data flow from predecessor output containers into
// activity input parameters, and blocks with UNTIL exit conditions for
// cyclic mappings and sub-workflows.
//
// The navigator executes ready activities in parallel — the property the
// paper relies on when it shows that the WfMS processes the independent
// case faster than the sequential case while the UDTF approach cannot.
package wfms

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

// SourceKind says where an activity input parameter comes from.
type SourceKind int

// Input parameter sources.
const (
	// FromInput reads a field of the process input container.
	FromInput SourceKind = iota
	// FromNode reads a column of a predecessor's output container.
	FromNode
	// ConstSource supplies a constant (the paper's simple case supplies
	// supplier 1234 this way).
	ConstSource
)

// Source describes one activity input parameter binding.
type Source struct {
	Kind   SourceKind
	Node   string // FromNode: producing node
	Column string // FromNode: column; FromInput: input field
	Const  types.Value
}

// Input returns a process-input source.
func Input(field string) Source { return Source{Kind: FromInput, Column: field} }

// From returns a predecessor-output source.
func From(node, column string) Source { return Source{Kind: FromNode, Node: node, Column: column} }

// Const returns a constant source.
func Const(v types.Value) Source { return Source{Kind: ConstSource, Const: v} }

func (s Source) String() string {
	switch s.Kind {
	case FromInput:
		return "INPUT." + s.Column
	case FromNode:
		return s.Node + "." + s.Column
	default:
		return s.Const.String()
	}
}

// Node is any process graph node.
type Node interface {
	NodeName() string
}

// FunctionActivity invokes one local function of an application system.
// Args bind the function's parameters; sources from multi-row containers
// cause one invocation per binding row (cross product across multi-row
// sources), with the outputs unioned — matching the lateral semantics of
// the UDTF architecture so both stacks compute identical results.
type FunctionActivity struct {
	Name     string
	System   string // empty: resolve by function name
	Function string
	Args     []Source
}

// NodeName implements Node.
func (a *FunctionActivity) NodeName() string { return a.Name }

// HelperActivity is the paper's helper function: an extra activity
// implementing type conversions, constant supply, or result-set
// composition. It sees whole predecessor containers by lower-case node
// name (plus "INPUT" for the process input container) through Containers.
// Fn must not write into a container it reads, nor keep in beyond the
// call.
type HelperActivity struct {
	Name string
	Fn   func(in Containers) (*types.Table, error)
}

// NodeName implements Node.
func (h *HelperActivity) NodeName() string { return h.Name }

// Block runs a sub-process. With Until == nil it is a plain sub-workflow;
// with Until set it is the do-until loop of the cyclic case: the body runs
// at least once and repeats until Until returns true on the body output.
// Feedback computes the next iteration's input container from the current
// output; Accumulate unions the body outputs of all iterations.
type Block struct {
	Name string
	Body *Process
	// Args bind the sub-process input container fields for the first
	// iteration.
	Args map[string]Source
	// Until evaluates the exit condition on the body output.
	Until func(out *types.Table) (bool, error)
	// Feedback derives the next iteration's input from the body output.
	Feedback func(out *types.Table) (map[string]types.Value, error)
	// Accumulate unions all iterations' outputs into the block output.
	Accumulate bool
	// MaxIterations guards against non-terminating loops (0 = default cap).
	MaxIterations int
}

// NodeName implements Node.
func (b *Block) NodeName() string { return b.Name }

// DefaultMaxIterations caps do-until loops without an explicit bound.
const DefaultMaxIterations = 10000

// ControlConnector orders two nodes. The optional transition condition is
// evaluated on the source node's output container when the source
// completes; a false condition marks the target side dead (dead-path
// elimination).
type ControlConnector struct {
	From, To  string
	Condition func(out *types.Table) (bool, error)
}

// StartCondition selects how multiple incoming connectors combine.
type StartCondition int

// Join modes, per MQ Series Workflow.
const (
	// StartAll runs the node when every incoming connector fired true
	// (AND-join, the default).
	StartAll StartCondition = iota
	// StartAny runs the node when at least one incoming connector fired
	// true (OR-join).
	StartAny
)

// Process is a workflow process template. An engine validates and
// compiles it at its first run and keeps the compiled form for later runs,
// the way a workflow system translates a process model once and lets every
// instance navigate the translation. So a Process must not change once an
// engine has run it: build a new Process value for a different template.
// A Process that fails validation is not kept and fails every run.
type Process struct {
	Name   string
	Input  []types.Column // input container schema
	Output types.Schema   // output container schema
	Nodes  []Node
	Flow   []ControlConnector
	// Starts overrides StartAll per node name.
	Starts map[string]StartCondition
	// Result names the node whose output container becomes the process
	// output (coerced to the Output schema).
	Result string
}

// node lookup helpers ------------------------------------------------

func (p *Process) node(name string) Node {
	for _, n := range p.Nodes {
		if strings.EqualFold(n.NodeName(), name) {
			return n
		}
	}
	return nil
}

// Validate checks structural soundness: unique node names, connector
// endpoints exist, argument sources reference existing nodes, the result
// node exists, and the control graph is acyclic. It recurses into blocks.
func (p *Process) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("wfms: process needs a name")
	}
	seen := make(map[string]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		key := strings.ToLower(n.NodeName())
		if key == "" {
			return fmt.Errorf("wfms: process %s has a node without a name", p.Name)
		}
		if key == "input" || key == "output" {
			return fmt.Errorf("wfms: process %s: node name %s is reserved", p.Name, n.NodeName())
		}
		if seen[key] {
			return fmt.Errorf("wfms: process %s has duplicate node %s", p.Name, n.NodeName())
		}
		seen[key] = true
	}
	for _, cc := range p.Flow {
		if p.node(cc.From) == nil {
			return fmt.Errorf("wfms: process %s: connector from unknown node %s", p.Name, cc.From)
		}
		if p.node(cc.To) == nil {
			return fmt.Errorf("wfms: process %s: connector to unknown node %s", p.Name, cc.To)
		}
		if strings.EqualFold(cc.From, cc.To) {
			return fmt.Errorf("wfms: process %s: self-connector on %s", p.Name, cc.From)
		}
	}
	if p.Result == "" || p.node(p.Result) == nil {
		return fmt.Errorf("wfms: process %s: result node %q does not exist", p.Name, p.Result)
	}
	if len(p.Output) == 0 {
		return fmt.Errorf("wfms: process %s declares no output container", p.Name)
	}
	inputFields := make(map[string]bool, len(p.Input))
	for _, f := range p.Input {
		inputFields[strings.ToLower(f.Name)] = true
	}
	checkSource := func(owner string, s Source) error {
		switch s.Kind {
		case FromInput:
			if !inputFields[strings.ToLower(s.Column)] {
				return fmt.Errorf("wfms: process %s: %s reads unknown input field %s", p.Name, owner, s.Column)
			}
		case FromNode:
			if p.node(s.Node) == nil {
				return fmt.Errorf("wfms: process %s: %s reads from unknown node %s", p.Name, owner, s.Node)
			}
		}
		return nil
	}
	for _, n := range p.Nodes {
		switch a := n.(type) {
		case *FunctionActivity:
			if a.Function == "" {
				return fmt.Errorf("wfms: process %s: activity %s names no function", p.Name, a.Name)
			}
			for _, s := range a.Args {
				if err := checkSource(a.Name, s); err != nil {
					return err
				}
			}
		case *HelperActivity:
			if a.Fn == nil {
				return fmt.Errorf("wfms: process %s: helper %s has no implementation", p.Name, a.Name)
			}
		case *Block:
			if a.Body == nil {
				return fmt.Errorf("wfms: process %s: block %s has no body", p.Name, a.Name)
			}
			for _, s := range a.Args {
				if err := checkSource(a.Name, s); err != nil {
					return err
				}
			}
			if err := a.Body.Validate(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wfms: process %s: unknown node type %T", p.Name, n)
		}
	}
	return p.checkAcyclic()
}

// checkAcyclic rejects cycles in the control graph (cycles belong inside
// blocks, which is the whole point of the do-until construct).
func (p *Process) checkAcyclic() error {
	indeg := make(map[string]int, len(p.Nodes))
	adj := make(map[string][]string, len(p.Nodes))
	for _, n := range p.Nodes {
		indeg[strings.ToLower(n.NodeName())] = 0
	}
	for _, cc := range p.Flow {
		from, to := strings.ToLower(cc.From), strings.ToLower(cc.To)
		adj[from] = append(adj[from], to)
		indeg[to]++
	}
	var queue []string
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if visited != len(p.Nodes) {
		return fmt.Errorf("wfms: process %s: control-flow graph contains a cycle", p.Name)
	}
	return nil
}

// Costs is the simulated cost profile of the workflow engine, matching the
// paper's observation that each activity boots a fresh Java program and
// handles its input and output containers.
type Costs struct {
	StartProcess      time.Duration // process instance + Java environment, once per run
	ActivityBoot      time.Duration // JVM boot per activity
	ContainerHandling time.Duration // container handling per activity
	Navigate          time.Duration // navigator work per activity
}

// CostsFromProfile extracts the workflow costs from the global profile.
func CostsFromProfile(p simlat.Profile) Costs {
	return Costs{
		StartProcess:      p.WfStart,
		ActivityBoot:      p.ActivityJVMBoot,
		ContainerHandling: p.ContainerHandling,
		Navigate:          p.WfNavigate,
	}
}

// Invoker reaches application-system functions on behalf of function
// activities. The context carries the statement's deadline and
// cancellation into the invocation.
type Invoker interface {
	Invoke(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error)
}

// BatchInvoker is the set-oriented extension of Invoker (the optional-
// interface pattern): one call carries every argument row of a batch and
// answers one table per row, so the transport underneath can issue a
// single RPC for the whole set.
type BatchInvoker interface {
	Invoker
	InvokeBatch(ctx context.Context, task *simlat.Task, system, function string, rows [][]types.Value) ([]*types.Table, error)
}

// invokeBatch dispatches to InvokeBatch when the invoker supports it, else
// degrades to a per-row loop.
func invokeBatch(ctx context.Context, inv Invoker, task *simlat.Task, system, function string, rows [][]types.Value) ([]*types.Table, error) {
	if bi, ok := inv.(BatchInvoker); ok {
		out, err := bi.InvokeBatch(ctx, task, system, function, rows)
		if err != nil {
			return nil, err
		}
		if len(out) != len(rows) {
			return nil, fmt.Errorf("wfms: batch invoker returned %d tables for %d rows", len(out), len(rows))
		}
		return out, nil
	}
	out := make([]*types.Table, len(rows))
	for i, args := range rows {
		res, err := inv.Invoke(ctx, task, system, function, args)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// InvokerFunc adapts a function to Invoker.
type InvokerFunc func(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, task *simlat.Task, system, function string, args []types.Value) (*types.Table, error) {
	return f(ctx, task, system, function, args)
}
