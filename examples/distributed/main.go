// Distributed runs the integration server against application systems
// living in a separate process boundary: the three systems are served
// over TCP (the stand-in for the paper's RMI deployment) and the FDBS
// stack reaches them through a dialled RPC client. Function metadata
// (signatures) comes from the locally constructed scenario catalog, as a
// real installation would import interface definitions.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fedwf/internal/appsys"
	"fedwf/internal/fedfunc"
	"fedwf/internal/rpc"
	"fedwf/internal/simlat"
	"fedwf/internal/types"
)

func main() {
	// "Remote" side: the application systems behind a TCP endpoint.
	remoteApps, err := appsys.BuildScenario()
	if err != nil {
		log.Fatal(err)
	}
	server := rpc.NewServer(remoteApps.Handler())
	// Serve batches natively: one wire request carries a whole chunk of
	// parameter rows when the FDBS runs with SET BATCH_SIZE. Clients of
	// servers that predate this call keep working row by row.
	server.SetBatchHandler(remoteApps.BatchHandler())
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	fmt.Println("application systems listening on", addr)

	// "Local" side: the integration server reaches them through one framed
	// multiplexed connection — parallel lateral workers pipeline their
	// calls over the shared socket instead of dialing per call.
	client, err := rpc.DialMux(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The local scenario catalog supplies the function signatures; every
	// actual call crosses the wire.
	localCatalog, err := appsys.BuildScenario()
	if err != nil {
		log.Fatal(err)
	}
	stack, err := fedfunc.NewStack(fedfunc.ArchWfMS, fedfunc.Options{
		Apps:       localCatalog,
		AppsClient: client,
	})
	if err != nil {
		log.Fatal(err)
	}

	session := stack.Engine().NewSession()
	session.MustExecContext(context.Background(), "CREATE TABLE candidates (SupplierNo INT, CompName VARCHAR(30))")
	session.MustExecContext(context.Background(), "INSERT INTO candidates VALUES (1, 'bolt'), (4, 'washer'), (7, 'pin')")

	fmt.Println("\nDecisions computed through workflows whose activities call over TCP:")
	start := time.Now()
	tab, err := session.QueryContext(context.Background(), `
		SELECT c.SupplierNo, c.CompName, D.Decision
		FROM candidates c, TABLE (BuySuppComp(c.SupplierNo, c.CompName)) AS D
		ORDER BY c.SupplierNo`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tab.String())
	fmt.Printf("(3 federated functions, 15 remote local-function calls, %v wall time)\n", time.Since(start).Round(time.Millisecond))

	// A single direct remote call for comparison.
	res, err := client.Call(context.Background(), simlat.Free(), rpc.Request{
		System: appsys.Purchasing, Function: "GetReliability",
		Args: []types.Value{types.NewInt(4)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndirect remote GetReliability(4) -> %s\n", res.Rows[0])
}
