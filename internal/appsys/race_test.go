//go:build race

package appsys

// The race detector's instrumentation allocates on its own account, so
// allocation budgets hold on ordinary builds only.
func init() { raceBuild = true }
