package rpc

import (
	"context"
	"testing"

	"fedwf/internal/obs"
)

// BenchmarkAdmission is what the serving layer adds per request and per
// connection, with the metrics a server attaches: an execution slot taken
// and released under a policy that never queues, as a served request takes
// it (Serve) and through the exported release function (Admit), and a
// session opened and closed (OpenSession).
func BenchmarkAdmission(b *testing.B) {
	a := NewAdmission(AdmissionPolicy{MaxConcurrent: 64, QueueDepth: 64},
		obs.NewServingMetrics(obs.NewRegistry()), AdmissionObserver{})
	ctx := context.Background()
	b.Run("Serve", func(b *testing.B) {
		// A served request arrives on an open session.
		closeSession, err := a.OpenSession(DefaultTenant, "framed")
		if err != nil {
			b.Fatal(err)
		}
		defer closeSession()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := a.acquire(ctx, DefaultTenant); err != nil {
				b.Fatal(err)
			}
			a.release(DefaultTenant)
		}
	})
	b.Run("Admit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			release, err := a.Admit(ctx, DefaultTenant)
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
	})
	b.Run("OpenSession", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			release, err := a.OpenSession(DefaultTenant, "framed")
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
	})
}
