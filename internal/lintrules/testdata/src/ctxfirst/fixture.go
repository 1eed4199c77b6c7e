// Package fixture exercises the ctxfirst rule: context.Context first in
// every parameter list, and no fresh root contexts inside internal/.
package fixture

import "context"

// BadOrder takes its context second; the finding anchors to the
// parameter's line.
func BadOrder(name string, ctx context.Context) string { // want `context\.Context must be the first parameter`
	_ = ctx
	return name
}

// BadRoot mints a root context inside internal/.
func BadRoot() context.Context {
	return context.Background() // want `context\.Background minted inside internal/`
}

// BadTODO is the same violation spelled TODO.
func BadTODO() context.Context {
	return context.TODO() // want `context\.TODO minted inside internal/`
}

// BadLit has the violation inside a function literal.
var BadLit = func(n int, ctx context.Context) int { // want `context\.Context must be the first parameter`
	_ = ctx
	return n
}

// Deprecated: use Good. The notice buys no exemption: a context-free shim
// minting a background context is a finding like any other.
func DeprecatedShim() string {
	return Good(context.Background(), "shim") // want `context\.Background minted inside internal/`
}

// Good threads the caller's context, first.
func Good(ctx context.Context, name string) string {
	_ = ctx
	return name
}

// Suppressed shows a sanctioned root context.
func Suppressed() context.Context {
	//fedlint:ignore ctxfirst fixture exercises the suppression path
	return context.Background()
}
