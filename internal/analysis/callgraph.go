package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under hotalloc and detflow: a
// per-function effect summary computed once per package and exported as a
// fact across package boundaries (JSON in the unitchecker's vetx files, an
// in-process SummaryTable in standalone mode). Each summary records what a
// single pass over the body can prove — allocation sites, nondeterminism
// sources, taint flow — plus the function's outgoing call edges, so the
// analyzers can answer reachability questions ("can System.Tick reach this
// make?") without whole-program SSA.
//
// Call edges come in three precisions:
//
//   - static: the callee is a named function or a method on a concrete type,
//     identified by its FuncID;
//   - iface: a method call through an interface value. Resolved
//     conservatively to every known method with the same name and parameter
//     count in the dependency cone — an over-approximation that can only
//     err toward reporting;
//   - func: a call through a func value (field, variable, parameter).
//     Resolved conservatively to every address-taken function or function
//     literal with a compatible parameter count.
//
// The conservative edges are what let hotalloc follow the
// OnResponse/OnDeliver handler registrations into their closures.

// A FuncID names one function across packages: "pkg/path.Func",
// "pkg/path.Type.Method" (receiver pointers stripped), or "parent$n" for the
// n-th function literal inside parent.
type FuncID = string

// Site is one position-stamped fact inside a function body.
type Site struct {
	Pos  string `json:"pos"` // token.Position string, stable across processes
	Desc string `json:"desc"`

	// pos is the in-process position, valid only for the package currently
	// being analyzed (never serialized; zero for imported facts).
	pos token.Pos
}

// Call kinds (CallEdge.Kind).
const (
	CallStatic = "static"
	CallIface  = "iface"
	CallFunc   = "func"
)

// CallEdge is one outgoing call recorded in a summary.
type CallEdge struct {
	Pos    string `json:"pos"`
	Kind   string `json:"kind"`
	Callee FuncID `json:"callee,omitempty"` // static: FuncID; iface: bare method name
	Arity  int    `json:"arity"`            // call-site argument count (resolution hint)
	Sig    string `json:"sig,omitempty"`    // func-value calls: canonical call signature

	// AllocOK marks a //clipvet:allocok escape on the call line: hotalloc's
	// interprocedural walk does not follow the edge.
	AllocOK bool `json:"allocok,omitempty"`

	pos token.Pos
}

// Trace is the provenance of one nondeterministic value: the source site and
// the call chain (FuncIDs, outermost first) it travelled through.
type Trace struct {
	Site Site     `json:"site"`
	Via  []FuncID `json:"via,omitempty"`
}

// ParamSink records that a function forwards its Param-th argument into a
// result sink (stats recording, canonical JSON encoding), possibly through
// further calls (Via).
type ParamSink struct {
	Param int      `json:"param"`
	Sink  Site     `json:"sink"`
	Via   []FuncID `json:"via,omitempty"`
}

// SinkHit is one complete source-to-sink flow discovered inside a function:
// reported by detflow in the package that owns the function. At is the
// position inside this function (the sink call, or the call forwarding into
// a sinking callee); Sink is the ultimate sink, possibly in a dependency.
type SinkHit struct {
	At     Site     `json:"at"`
	Sink   Site     `json:"sink"`
	Source Trace    `json:"source"`
	Via    []FuncID `json:"via,omitempty"` // chain below the sink call, if any
}

// FuncSummary is the exported per-function fact.
type FuncSummary struct {
	ID    FuncID `json:"id"`
	Name  string `json:"name"` // bare name (iface resolution key)
	Pos   string `json:"pos"`
	Arity int    `json:"arity"`         // declared parameter count
	Sig   string `json:"sig,omitempty"` // canonical signature (func-value resolution key)

	Method    bool `json:"method,omitempty"`
	AddrTaken bool `json:"addrTaken,omitempty"` // used as a value somewhere

	// Annotations lifted from the declaration.
	Hotpath bool `json:"hotpath,omitempty"` // //clipvet:hotpath root
	AllocOK bool `json:"allocok,omitempty"` // whole function is a cold slow path
	Sink    bool `json:"sink,omitempty"`    // //clipvet:sink: args reach canonical output

	Allocs []Site     `json:"allocs,omitempty"` // unescaped allocation sites
	Calls  []CallEdge `json:"calls,omitempty"`

	// detflow facts.
	TaintedReturn *Trace      `json:"taintedReturn,omitempty"`
	ParamToReturn []int       `json:"paramToReturn,omitempty"`
	ParamSinks    []ParamSink `json:"paramSinks,omitempty"`
	SinkHits      []SinkHit   `json:"sinkHits,omitempty"`
}

// PkgSummaries is the fact set of one package.
type PkgSummaries struct {
	Pkg   string                  `json:"pkg"`
	Funcs map[FuncID]*FuncSummary `json:"funcs"`
}

// SummaryTable indexes the fact sets of a package's dependency cone (plus,
// during analysis, the package itself).
type SummaryTable struct {
	pkgs map[string]*PkgSummaries

	// Lazily built resolution indexes.
	byMethodName map[string][]*FuncSummary // bare method name -> methods
	addrTaken    []*FuncSummary
}

// NewSummaryTable returns an empty table.
func NewSummaryTable() *SummaryTable {
	return &SummaryTable{pkgs: map[string]*PkgSummaries{}}
}

// Add registers one package's facts (replacing any previous entry) and
// invalidates the resolution indexes.
func (t *SummaryTable) Add(p *PkgSummaries) {
	if p == nil {
		return
	}
	t.pkgs[p.Pkg] = p
	t.byMethodName = nil
	t.addrTaken = nil
}

// Fn resolves a FuncID to its summary, or nil.
func (t *SummaryTable) Fn(id FuncID) *FuncSummary {
	pkg := id
	if i := strings.LastIndex(id, "."); i >= 0 {
		// FuncIDs are pkgpath.Name or pkgpath.Type.Name; try both splits.
		pkg = id[:i]
	}
	for {
		if p, ok := t.pkgs[pkg]; ok {
			if f := p.Funcs[id]; f != nil {
				return f
			}
		}
		i := strings.LastIndex(pkg, ".")
		if i < 0 {
			return nil
		}
		pkg = pkg[:i]
	}
}

func (t *SummaryTable) buildIndexes() {
	if t.byMethodName != nil {
		return
	}
	t.byMethodName = map[string][]*FuncSummary{}
	t.addrTaken = nil
	paths := make([]string, 0, len(t.pkgs))
	for p := range t.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := t.pkgs[path]
		ids := make([]string, 0, len(p.Funcs))
		for id := range p.Funcs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			f := p.Funcs[id]
			if f.Method {
				t.byMethodName[f.Name] = append(t.byMethodName[f.Name], f)
			}
			if f.AddrTaken {
				t.addrTaken = append(t.addrTaken, f)
			}
		}
	}
}

// ResolveEdge returns the possible callees of one edge within this table:
// exact for static calls, conservative (name+arity for interface calls,
// address-taken+signature for func-value calls, arity when a summary
// predates the Sig field) otherwise.
func (t *SummaryTable) ResolveEdge(e *CallEdge) []*FuncSummary {
	switch e.Kind {
	case CallStatic:
		if f := t.Fn(e.Callee); f != nil {
			return []*FuncSummary{f}
		}
		return nil
	case CallIface:
		t.buildIndexes()
		var out []*FuncSummary
		for _, f := range t.byMethodName[e.Callee] {
			if f.Arity == e.Arity {
				out = append(out, f)
			}
		}
		return out
	case CallFunc:
		t.buildIndexes()
		var out []*FuncSummary
		for _, f := range t.addrTaken {
			// Full-signature matching when both sides carry one (a zero-arg
			// func() float64 bandwidth hook must not resolve to every
			// zero-arg closure in the module); arity is the fallback for
			// summaries predating the Sig field.
			if e.Sig != "" && f.Sig != "" {
				if e.Sig == f.Sig {
					out = append(out, f)
				}
				continue
			}
			if f.Arity == e.Arity {
				out = append(out, f)
			}
		}
		return out
	}
	return nil
}

// DisplayID renders a FuncID for diagnostics: the module prefix is noise in
// a call chain ("sim.System.Tick", not "clip/internal/sim.System.Tick").
func DisplayID(id FuncID) string {
	id = strings.TrimPrefix(id, "clip/internal/")
	id = strings.TrimPrefix(id, "clip/cmd/")
	return id
}

// FormatChain renders a root-to-sink call chain for a diagnostic message.
func FormatChain(chain []FuncID) string {
	parts := make([]string, len(chain))
	for i, id := range chain {
		parts[i] = DisplayID(id)
	}
	return strings.Join(parts, " -> ")
}

// allocPkgs are stdlib packages whose calls allocate (or box their arguments)
// as a matter of course; any call into them from hot-path code is an
// allocation site. fmt is the canonical offender; the rest back string
// building, sorting and encoding, none of which belong on the hot path.
var allocPkgs = map[string]bool{
	"fmt": true, "sort": true, "strings": true, "bytes": true,
	"strconv": true, "errors": true, "encoding/json": true,
	"reflect": true, "regexp": true,
}

// sinkPkgs are stdlib packages whose calls are detflow result sinks: a value
// reaching them reaches the canonical report encoding.
var sinkPkgs = map[string]bool{"encoding/json": true}

// sourceFuncs are stdlib calls that produce nondeterministic values
// (detflow sources; the wallclock analyzer flags the call itself, detflow
// follows the value). Keyed "pkgpath.Func".
var sourceFuncs = map[string]string{
	"time.Now":          "wall-clock time",
	"time.Since":        "wall-clock time",
	"time.Until":        "wall-clock time",
	"os.Getenv":         "ambient environment",
	"math/rand.Int":     "unseeded global rand",
	"math/rand.Intn":    "unseeded global rand",
	"math/rand.Int63":   "unseeded global rand",
	"math/rand.Int31":   "unseeded global rand",
	"math/rand.Uint32":  "unseeded global rand",
	"math/rand.Uint64":  "unseeded global rand",
	"math/rand.Float64": "unseeded global rand",
	"math/rand.Float32": "unseeded global rand",
	"math/rand.Perm":    "unseeded global rand",
	"math/rand.Shuffle": "unseeded global rand",
}

// exemptPkgs are in-module packages whose calls are never allocation sites
// or effect edges: internal/invariant compiles to nothing in release builds.
func exemptCallee(path string) bool {
	return strings.HasSuffix(path, "internal/invariant")
}

// summaryBuilder computes one package's PkgSummaries.
type summaryBuilder struct {
	fset *token.FileSet
	pkg  *types.Package
	info *types.Info
	dirs *directiveIndex
	deps *SummaryTable

	sums *PkgSummaries
	// order keeps FuncIDs in declaration order for the deterministic taint
	// fixpoint.
	order []FuncID
}

// BuildSummaries computes the fact set of one package against the facts of
// its dependency cone. files must be the non-test files.
func BuildSummaries(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, dirs *directiveIndex, deps *SummaryTable) *PkgSummaries {
	if deps == nil {
		deps = NewSummaryTable()
	}
	b := &summaryBuilder{
		fset: fset, pkg: pkg, info: info, dirs: dirs, deps: deps,
		sums: &PkgSummaries{Pkg: pkg.Path(), Funcs: map[FuncID]*FuncSummary{}},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			b.summarizeDecl(fd)
		}
	}
	// Address-taken marking needs a second pass: a function may be referenced
	// before (or after) its declaration.
	for _, f := range files {
		b.markAddrTaken(f)
	}
	b.taintFixpoint(files)
	return b.sums
}

// funcID names the declared function fd.
func (b *summaryBuilder) funcID(fd *ast.FuncDecl) (FuncID, bool) {
	obj, _ := b.info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return "", false
	}
	return funcObjID(obj), obj.Type().(*types.Signature).Recv() != nil
}

// funcObjID renders the FuncID of a *types.Func.
func funcObjID(obj *types.Func) FuncID {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + obj.Name()
		}
	}
	return pkg + "." + obj.Name()
}

func (b *summaryBuilder) site(pos token.Pos, desc string) Site {
	return Site{Pos: b.fset.Position(pos).String(), Desc: desc, pos: pos}
}

// summarizeDecl builds the summary of one declared function and of every
// function literal nested inside it.
func (b *summaryBuilder) summarizeDecl(fd *ast.FuncDecl) {
	id, isMethod := b.funcID(fd)
	if id == "" {
		return
	}
	sig := b.info.Defs[fd.Name].Type().(*types.Signature)
	s := &FuncSummary{
		ID: id, Name: fd.Name.Name, Pos: b.fset.Position(fd.Pos()).String(),
		Arity:   sig.Params().Len(),
		Sig:     sigString(sig),
		Method:  isMethod,
		Hotpath: b.dirs.has(b.fset, fd.Pos(), "hotpath"),
		AllocOK: b.dirs.has(b.fset, fd.Pos(), "allocok"),
		Sink:    b.dirs.has(b.fset, fd.Pos(), "sink"),
	}
	b.sums.Funcs[id] = s
	b.order = append(b.order, id)
	b.walkBody(s, fd.Body)
}

// walkBody collects effects and calls of body into s, recursing into nested
// function literals as their own summaries.
func (b *summaryBuilder) walkBody(s *FuncSummary, body *ast.BlockStmt) {
	litN := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litN++
			sig := b.info.Types[n.Type].Type.(*types.Signature)
			lit := &FuncSummary{
				ID:   fmt.Sprintf("%s$%d", s.ID, litN),
				Name: "func literal", Pos: b.fset.Position(n.Pos()).String(),
				Arity:     sig.Params().Len(),
				Sig:       sigString(sig),
				AddrTaken: true, // literals exist only as values
				AllocOK:   s.AllocOK || b.dirs.has(b.fset, n.Pos(), "allocok"),
			}
			b.sums.Funcs[lit.ID] = lit
			b.order = append(b.order, lit.ID)
			// The closure value itself is an allocation in the enclosing
			// function when it captures variables.
			if !b.dirs.has(b.fset, n.Pos(), "allocok") && b.captures(n) {
				s.Allocs = append(s.Allocs, b.site(n.Pos(), "closure captures variables (heap-allocated)"))
			}
			b.walkBody(lit, n.Body)
			return false // literal's body belongs to lit, not s
		case *ast.CallExpr:
			b.addCall(s, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					b.addAlloc(s, n.Pos(), "&"+types.ExprString(cl.Type)+"{...} heap allocation")
				}
			}
		case *ast.CompositeLit:
			// Slice and map literals allocate backing storage even as values.
			switch b.info.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				b.addAlloc(s, n.Pos(), "slice literal allocates backing array")
			case *types.Map:
				b.addAlloc(s, n.Pos(), "map literal allocates")
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// captures reports whether lit references any variable declared outside it.
func (b *summaryBuilder) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj, ok := b.info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || obj.Pkg() != b.pkg {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}

func (b *summaryBuilder) addAlloc(s *FuncSummary, pos token.Pos, desc string) {
	if b.dirs.has(b.fset, pos, "allocok") {
		return
	}
	s.Allocs = append(s.Allocs, b.site(pos, desc))
}

// addCall classifies one call expression: builtin allocations, stdlib
// allocation/source/sink facts, or a call edge.
func (b *summaryBuilder) addCall(s *FuncSummary, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversions are not calls.
	if tv, ok := b.info.Types[fun]; ok && tv.IsType() {
		t := b.info.Types[fun].Type
		if basicString(t) {
			if len(call.Args) == 1 {
				if at := b.info.Types[call.Args[0]].Type; at != nil {
					if _, isSlice := at.Underlying().(*types.Slice); isSlice {
						b.addAlloc(s, call.Pos(), "[]byte/[]rune to string conversion allocates")
					}
				}
			}
		} else if sl, ok := t.Underlying().(*types.Slice); ok && basicString(typeOfFirstArg(b.info, call)) && elemIsByteOrRune(sl) {
			b.addAlloc(s, call.Pos(), "string to []byte/[]rune conversion allocates")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if bi, ok := b.info.Uses[id].(*types.Builtin); ok {
			switch bi.Name() {
			case "make":
				b.addAlloc(s, call.Pos(), "make allocates")
			case "new":
				b.addAlloc(s, call.Pos(), "new allocates")
			case "append":
				b.addAlloc(s, call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	callee := calleeFunc(b.info, fun)
	if callee != nil && callee.Pkg() != nil {
		path := callee.Pkg().Path()
		if exemptCallee(path) {
			return // compiled out in release builds
		}
		if path != b.pkg.Path() && !isModulePath(path) {
			// Stdlib / out-of-module: fact tables instead of edges. (Source
			// functions are recorded by the taint pass, which owns them.)
			if _, isSource := sourceFuncs[path+"."+callee.Name()]; !isSource && allocPkgs[path] {
				b.addAlloc(s, call.Pos(), path+"."+callee.Name()+" allocates (boxes arguments / builds strings)")
			}
			return
		}
	}

	edge := CallEdge{
		Pos: b.fset.Position(call.Pos()).String(), pos: call.Pos(),
		Arity:   len(call.Args),
		AllocOK: b.dirs.has(b.fset, call.Pos(), "allocok"),
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := b.info.Uses[f].(type) {
		case *types.Func:
			edge.Kind, edge.Callee = CallStatic, funcObjID(obj)
		case *types.Var:
			edge.Kind = CallFunc
		default:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := b.info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			if types.IsInterface(sel.Recv().Underlying()) {
				edge.Kind, edge.Callee = CallIface, m.Name()
			} else {
				edge.Kind, edge.Callee = CallStatic, funcObjID(m)
			}
		} else if obj, ok := b.info.Uses[f.Sel].(*types.Func); ok {
			edge.Kind, edge.Callee = CallStatic, funcObjID(obj)
		} else if _, ok := b.info.Uses[f.Sel].(*types.Var); ok {
			edge.Kind = CallFunc // call through a func-typed field/var
		} else {
			return
		}
	default:
		// Call of a call result, index expression, etc: a func value.
		if t := b.info.Types[fun].Type; t != nil {
			if _, ok := t.Underlying().(*types.Signature); ok {
				edge.Kind = CallFunc
			} else {
				return
			}
		} else {
			return
		}
	}

	if edge.Kind == CallFunc {
		if sig := signatureOf(b.info, fun); sig != nil {
			edge.Sig = sigString(sig)
		}
	}
	s.Calls = append(s.Calls, edge)

	// fmt-style boxing: passing arguments through a variadic ...any
	// parameter boxes every value.
	if sig := signatureOf(b.info, fun); sig != nil && sig.Variadic() {
		last := sig.Params().At(sig.Params().Len() - 1)
		if sl, ok := last.Type().(*types.Slice); ok {
			if it, ok := sl.Elem().Underlying().(*types.Interface); ok && it.Empty() &&
				len(call.Args) >= sig.Params().Len() {
				b.addAlloc(s, call.Pos(), "variadic ...any call boxes its arguments")
			}
		}
	}
}

// markAddrTaken flags every function referenced as a value (passed, stored,
// returned) rather than called: those are the conservative targets of
// func-value calls.
func (b *summaryBuilder) markAddrTaken(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			// The Fun position of a direct call is not an address-taking use;
			// skip just that child and keep walking args.
			for _, a := range call.Args {
				b.markAddrTakenExpr(a)
			}
			fun := ast.Unparen(call.Fun)
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				b.markAddrTakenExpr(sel.X)
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			b.markIdentAddrTaken(id)
		}
		return true
	})
}

func (b *summaryBuilder) markAddrTakenExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			b.markIdentAddrTaken(id)
		}
		return true
	})
}

func (b *summaryBuilder) markIdentAddrTaken(id *ast.Ident) {
	obj, ok := b.info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if s := b.sums.Funcs[funcObjID(obj)]; s != nil {
		s.AddrTaken = true
	}
}

// --- helpers -------------------------------------------------------------

// calleeFunc resolves fun to the *types.Func it names, or nil for func
// values and builtins.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		obj, _ := info.Uses[f].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj().(*types.Func)
		}
		obj, _ := info.Uses[f.Sel].(*types.Func)
		return obj
	}
	return nil
}

// sigString renders a signature canonically (full package paths, receiver
// and parameter names stripped) so call sites and candidate callees compare
// across packages: a declared func(x int) must equal a call through a
// func(int) value.
func sigString(sig *types.Signature) string {
	strip := func(t *types.Tuple) *types.Tuple {
		if t == nil {
			return nil
		}
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	sig = types.NewSignatureType(nil, nil, nil,
		strip(sig.Params()), strip(sig.Results()), sig.Variadic())
	return types.TypeString(sig, func(p *types.Package) string { return p.Path() })
}

// signatureOf returns the call signature of fun, or nil.
func signatureOf(info *types.Info, fun ast.Expr) *types.Signature {
	t := info.Types[fun].Type
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// isModulePath reports whether path is inside this module.
func isModulePath(path string) bool {
	return path == "clip" || strings.HasPrefix(path, "clip/")
}

func basicString(t types.Type) bool {
	if t == nil {
		return false
	}
	bt, ok := t.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsString != 0
}

func typeOfFirstArg(info *types.Info, call *ast.CallExpr) types.Type {
	if len(call.Args) != 1 {
		return nil
	}
	return info.Types[call.Args[0]].Type
}

func elemIsByteOrRune(sl *types.Slice) bool {
	bt, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (bt.Kind() == types.Byte || bt.Kind() == types.Rune ||
		bt.Kind() == types.Uint8 || bt.Kind() == types.Int32)
}
