// Package locksafe enforces the System lock discipline from PR 2:
//
//   - No heavy compute while holding a registry mutex. The compute
//     kernels (internal/core, cluster, fascicle, xprofiler), exec.Guard
//     and exec.Run must never be called between a sync.Mutex Lock and its
//     Unlock: the pattern is lock → look up → unlock → compute → lock →
//     register. Holding the registry lock across a miner would serialise
//     every concurrent session behind one CPU-bound call.
//
//   - No admission-slot leaks. A `release, err := s.acquire(ctx)` must
//     be paired with `defer release()`; a function that acquires a slot
//     and can return without releasing it permanently shrinks the
//     semaphore, and after MaxConcurrent leaks every heavy operation
//     times out with ErrBusy.
//
// The lock tracking is lexical and per-function: Lock/Unlock calls are
// interpreted in statement order, branches that terminate (return) are
// assumed not taken for the code that follows, and function literals are
// scanned with a fresh (unlocked) state since their execution point is
// unknown. This is deliberately the same approximation a human reviewer
// applies to the straight-line locking style used throughout System.
package locksafe

import (
	"go/ast"
	"go/types"

	"gea/internal/analysis"
)

// Analyzer flags heavy compute under a held mutex and leaked admission
// slots.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "no operator/exec.Guard/exec.Run calls while holding a mutex; acquire'd admission slots must be defer-released",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := &scan{pass: pass, held: make(map[string]bool)}
			s.block(fn.Body.List)
			checkAcquire(pass, fn)
		}
	}
	return nil
}

// scan tracks which mutexes are held, keyed by the source text of the
// receiver expression ("s.mu").
type scan struct {
	pass *analysis.Pass
	held map[string]bool
}

func (s *scan) clone() *scan {
	c := &scan{pass: s.pass, held: make(map[string]bool, len(s.held))}
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

func (s *scan) anyHeld() (string, bool) {
	for k, h := range s.held {
		if h {
			return k, true
		}
	}
	return "", false
}

// block scans a statement list in order.
func (s *scan) stmt(stmt ast.Stmt) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := mutexOp(s.pass.TypesInfo, st.X); ok {
			s.held[recv] = op == "Lock" || op == "RLock"
			return
		}
		s.exprs(st.X)
	case *ast.DeferStmt:
		if recv, op, ok := mutexOp(s.pass.TypesInfo, st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			// defer mu.Unlock(): the lock stays held for the rest of
			// the function, so heavy calls below are still violations —
			// leave held as-is.
			_ = recv
			return
		}
		s.exprs(st.Call)
	case *ast.BlockStmt:
		s.block(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.exprs(st.Cond)
		body := s.clone()
		body.block(st.Body.List)
		var elseExit *scan
		if st.Else != nil {
			elseExit = s.clone()
			elseExit.stmt(st.Else)
		}
		// If a branch terminates, the code after the if runs with the
		// pre-branch state; otherwise adopt the branch's exit state
		// (straight-line reading).
		if !terminates(st.Body) {
			s.held = body.held
		} else if st.Else != nil && !terminatesStmt(st.Else) {
			s.held = elseExit.held
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.exprs(st.Cond)
		}
		body := s.clone()
		body.block(st.Body.List)
	case *ast.RangeStmt:
		s.exprs(st.X)
		body := s.clone()
		body.block(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.exprs(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := s.clone()
			cc.block(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Rare in locking code; scan conservatively for heavy calls
		// with the current state.
		ast.Inspect(st, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				s.checkCall(call)
			}
			return !isFuncLit(n)
		})
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.exprs(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.exprs(e)
		}
	case *ast.GoStmt:
		s.exprs(st.Call.Fun)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
		ast.Inspect(stmt, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				s.checkCall(call)
			}
			return !isFuncLit(n)
		})
	}
}

func (s *scan) block(list []ast.Stmt) {
	for _, stmt := range list {
		s.stmt(stmt)
	}
}

// exprs flags heavy calls inside an expression tree, scanning nested
// function literals with a fresh state.
func (s *scan) exprs(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fresh := &scan{pass: s.pass, held: make(map[string]bool)}
			fresh.block(lit.Body.List)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			s.checkCall(call)
		}
		return true
	})
}

func isFuncLit(n ast.Node) bool { _, ok := n.(*ast.FuncLit); return ok }

// checkCall reports call if it is heavy while a mutex is held. Heavy
// means a metered operator of a compute-kernel package — a function
// whose signature threads a *exec.Ctl — or exec.Guard or exec.Run, which
// run one (the operator itself sits in a function literal, which is
// scanned with a fresh state). Plain accessors of kernel packages
// (Enum.IsPure, Algorithm.String, ...) are cheap and fine under the lock.
func (s *scan) checkCall(call *ast.CallExpr) {
	mu, held := s.anyHeld()
	if !held {
		return
	}
	fn := analysis.Callee(s.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case analysis.IsHeavyPkg(path) && isMetered(fn):
		s.pass.Reportf(call.Pos(), "call to governed operator %s.%s while holding %s: run compute outside the lock (lock → look up → unlock → compute → lock → register)", fn.Pkg().Name(), fn.Name(), mu)
	case analysis.IsExecPkg(path) && (fn.Name() == "Guard" || fn.Name() == "Run"):
		s.pass.Reportf(call.Pos(), "exec.%s call while holding %s: guarded operator work must not run under a registry lock", fn.Name(), mu)
	}
}

// isMetered reports whether fn's signature carries a *exec.Ctl — the
// shape of every metered operator.
func isMetered(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && analysis.CtlParam(sig) != nil
}

// mutexOp recognises <expr>.Lock/Unlock/RLock/RUnlock() on a
// sync.Mutex/RWMutex and returns the receiver's source key.
func mutexOp(info *types.Info, e ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := info.Types[sel.X]
	if !found || !isSyncLocker(tv.Type) {
		return "", "", false
	}
	key, exact := exprKey(sel.X)
	if !exact {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

func isSyncLocker(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// exprKey renders simple ident/selector chains ("s.mu") as a stable
// key; anything more dynamic is not tracked.
func exprKey(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	default:
		return "", false
	}
}

// terminates reports whether a block's last statement definitely leaves
// the function (return or panic).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return terminatesStmt(b.List[len(b.List)-1])
}

func terminatesStmt(stmt ast.Stmt) bool {
	switch st := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return terminates(st)
	case *ast.IfStmt:
		return terminates(st.Body) && st.Else != nil && terminatesStmt(st.Else)
	}
	return false
}

// --- admission-semaphore pairing ---

// checkAcquire enforces `release, err := x.acquire(ctx)` / `defer
// release()` pairing inside fn.
func checkAcquire(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			rel, errObj, ok := acquireAssign(pass.TypesInfo, stmt)
			if !ok {
				continue
			}
			deferIdx := -1
			for j := i + 1; j < len(block.List); j++ {
				if d, ok := block.List[j].(*ast.DeferStmt); ok && callsObj(pass.TypesInfo, d.Call, rel) {
					deferIdx = j
					break
				}
			}
			if deferIdx < 0 {
				if !deferredAnywhere(pass.TypesInfo, fn.Body, rel) {
					pass.Reportf(stmt.Pos(), "admission slot from acquire is never released with `defer %s()`: a leaked slot permanently shrinks the semaphore", rel.Name())
				}
				continue
			}
			// Between the acquire and its defer, the only return allowed
			// is the acquire-error guard itself.
			for j := i + 1; j < deferIdx; j++ {
				mid := block.List[j]
				if ifGuardsErr(pass.TypesInfo, mid, errObj) {
					continue
				}
				ast.Inspect(mid, func(m ast.Node) bool {
					if ret, ok := m.(*ast.ReturnStmt); ok {
						pass.Reportf(ret.Pos(), "return between acquire and `defer %s()` leaks the admission slot on this path", rel.Name())
					}
					return !isFuncLit(m)
				})
			}
		}
		return true
	})
}

// acquireAssign matches `rel, err := <recv>.acquire(...)` where the
// callee returns (func(), error).
func acquireAssign(info *types.Info, stmt ast.Stmt) (rel, errObj types.Object, ok bool) {
	as, isAssign := stmt.(*ast.AssignStmt)
	if !isAssign || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return nil, nil, false
	}
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !isCall {
		return nil, nil, false
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != "acquire" {
		return nil, nil, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 2 || !analysis.IsErrorType(sig.Results().At(1).Type()) {
		return nil, nil, false
	}
	if _, isFunc := sig.Results().At(0).Type().Underlying().(*types.Signature); !isFunc {
		return nil, nil, false
	}
	relID, okRel := as.Lhs[0].(*ast.Ident)
	errID, okErr := as.Lhs[1].(*ast.Ident)
	if !okRel || !okErr {
		return nil, nil, false
	}
	return obj(info, relID), obj(info, errID), true
}

func obj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// callsObj reports whether call invokes the identifier bound to o.
func callsObj(info *types.Info, call *ast.CallExpr, o types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && o != nil && info.Uses[id] == o
}

// deferredAnywhere looks for `defer rel()` anywhere in the body.
func deferredAnywhere(info *types.Info, body *ast.BlockStmt, rel types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && callsObj(info, d.Call, rel) {
			found = true
		}
		return !found
	})
	return found
}

// ifGuardsErr matches `if err != nil { ... }`-style guards on the
// acquire error (including `if err := ...; err != nil` shapes whose
// condition mentions the error object).
func ifGuardsErr(info *types.Info, stmt ast.Stmt, errObj types.Object) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || errObj == nil {
		return false
	}
	uses := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == errObj || info.Defs[id] == errObj) {
			uses = true
		}
		return !uses
	})
	return uses
}
