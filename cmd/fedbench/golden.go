package main

import (
	"context"
	"fmt"
)

// writeGolden recomputes the digest of every fed_* statement's result on
// both architectures, insists that they agree — the paper's equivalence
// claim: the same federated function yields the same table whichever way
// it is integrated — and writes them to path.
func writeGolden(ctx context.Context, path string) error {
	golden := make(map[string]string, len(fedStmts))
	for _, w := range workloads(nil)[:2] {
		e, err := setUp(ctx, w, 1, nil)
		if err != nil {
			return err
		}
		for _, f := range fedStmts {
			res, err := e.clients[0].Exec(ctx, f.sql)
			if err != nil {
				e.close()
				return fmt.Errorf("%s: %s: %w", w.name, f.sql, err)
			}
			d := digest(res.Table)
			if prev, ok := golden[f.sql]; ok && prev != d {
				e.close()
				return fmt.Errorf("%s: the two architectures disagree:\n%s", f.sql, res.Table)
			}
			golden[f.sql] = d
		}
		e.close()
	}
	if err := writeJSON(path, golden); err != nil {
		return err
	}
	fmt.Printf("fedbench: pinned %d digests in %s\n", len(golden), path)
	return nil
}
