package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// LSNDiscipline confines LSN arithmetic to the blessed assignment
// helpers. Dense LSN assignment (every record at exactly lastLSN+1) is a
// protocol invariant: the WAL owns it, and on the coordinator side only
// the lockstep recording helpers may derive positions. Anywhere else,
// deriving a position by addition, increment, or compound assignment
// invents a log position and is flagged. Binary subtraction is free —
// it yields a distance (lag metrics, retention windows) — as are
// comparisons: ordering checks are how everyone else is supposed to use
// LSNs.
var LSNDiscipline = &Analyzer{
	Code: codeLSNDiscipline,
	Doc:  "LSN arithmetic outside the blessed wal/coordinator assignment helpers",
	Run:  runLSNDiscipline,
}

// lsnBlessed lists the non-wal functions allowed to do LSN arithmetic,
// as "ReceiverType.Method" (receiver type name without pointer). The wal
// package is blessed wholesale — it is the assigner.
var lsnBlessed = map[string]bool{
	// The durable backend's idempotent-redelivery window: next-LSN
	// assignment and gap detection against the local log.
	"durableBackend.DeltaBatch": true,
	// The coordinator's one lockstep assigner: dense positions under
	// writeMu, base + offset per record of a run.
	"Coordinator.commitToGroup": true,
	// Tail reconciliation's geometric comparison windows.
	"Coordinator.reconcileTail": true,
	// The recovery manager's checkpoint policy: append-count lag and the
	// retention floor are derived from LSN distances.
	"Manager.noteAppendLocked": true,
	"Manager.checkpointLocked": true,
}

func runLSNDiscipline(p *Package) []Diagnostic {
	if !isServingPackage(p.Path) || strings.Contains(p.Path, "internal/wal") {
		return nil
	}
	var diags []Diagnostic
	eachFuncDecl(p, func(fd *ast.FuncDecl) {
		if lsnBlessed[recvMethodKey(p, fd)] {
			return
		}
		report := func(pos token.Pos, what string) {
			diags = append(diags, Diagnostic{
				Pos:  p.Fset.Position(pos),
				Code: codeLSNDiscipline,
				Message: fmt.Sprintf("LSN arithmetic (%s) outside the blessed assignment helpers; positions are assigned densely by the WAL and the lockstep recorder only",
					what),
			})
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op == token.ADD && (isLSNExpr(x.X) || isLSNExpr(x.Y)) {
					report(x.Pos(), x.Op.String())
				}
			case *ast.IncDecStmt:
				if isLSNExpr(x.X) {
					report(x.Pos(), x.Tok.String())
				}
			case *ast.AssignStmt:
				if x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN {
					for _, lhs := range x.Lhs {
						if isLSNExpr(lhs) {
							report(x.Pos(), x.Tok.String())
						}
					}
				}
			}
			return true
		})
	})
	return diags
}

// recvMethodKey renders fd as "ReceiverType.Method" ("" for plain
// functions).
func recvMethodKey(p *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name + "." + fd.Name.Name
}

// isLSNExpr reports whether the expression names an LSN: an identifier
// or field selector whose name contains "lsn" (case-insensitive).
func isLSNExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(x.Name), "lsn")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(x.Sel.Name), "lsn")
	case *ast.CallExpr:
		// LastLSN()-style accessors feeding arithmetic.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return strings.Contains(strings.ToLower(sel.Sel.Name), "lsn")
		}
	}
	return false
}
