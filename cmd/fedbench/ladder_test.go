package main

import "testing"

// A hand-built statement: client 100us > server 70 > engine 50 > {parse 5,
// compile 8, udtf 45}; the udtf child plus its siblings exceed the engine
// rung (58 > 50), so the engine's self time clamps to 0. Under udtf a
// controller of 30 with two appsys calls of 9 and 11, and a side probe.
func TestSelfByLayerSubtractsChildrenAndCountsClamps(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Layer: "rpc", Name: "client.exec", StartNS: 0, EndNS: us(100), Mallocs: 400},
		{Trace: 1, ID: 2, Parent: 1, Layer: "fdbs", Name: "server.exec", StartNS: us(200), EndNS: us(270), Mallocs: 300},
		{Trace: 1, ID: 3, Parent: 2, Layer: "exec", Name: "session.exec", StartNS: us(300), EndNS: us(350), Mallocs: 200},
		{Trace: 1, ID: 4, Parent: 3, Layer: "sqlparser", Name: "sqlparser.parse", StartNS: us(400), EndNS: us(405), Mallocs: 20},
		{Trace: 1, ID: 5, Parent: 3, Layer: "plan", Name: "plan.compile", StartNS: us(410), EndNS: us(418), Mallocs: 30},
		{Trace: 1, ID: 6, Parent: 3, Layer: "udtf", Name: "udtf.invoke", StartNS: us(420), EndNS: us(465), Mallocs: 160},
		{Trace: 1, ID: 7, Parent: 6, Layer: "controller", Name: "controller.call", StartNS: us(500), EndNS: us(530), Mallocs: 50},
		{Trace: 1, ID: 8, Parent: 7, Layer: "appsys", Name: "appsys.call", StartNS: us(600), EndNS: us(609), Mallocs: 10},
		{Trace: 1, ID: 9, Parent: 7, Layer: "appsys", Name: "appsys.call", StartNS: us(610), EndNS: us(621), Mallocs: 12},
		{Trace: 1, ID: 10, Parent: 0, Layer: layerProbe, Name: "rpc.echo", StartNS: us(700), EndNS: us(740), Mallocs: 90},
	}
	selfNS, selfMallocs, clamped := selfByLayer(spans)
	wantNS := map[string]int64{
		"rpc": us(30), "fdbs": us(20), "exec": 0, "sqlparser": us(5), "plan": us(8),
		"udtf": us(15), "controller": us(10), "appsys": us(20), layerProbe: us(40),
	}
	for layer, want := range wantNS {
		if selfNS[layer] != want {
			t.Errorf("self time of %s = %d ns, want %d", layer, selfNS[layer], want)
		}
	}
	if clamped != 1 {
		t.Errorf("clamped = %d, want 1 (the engine rung)", clamped)
	}
	wantMallocs := map[string]int64{
		"rpc": 100, "fdbs": 100, "exec": 0, "sqlparser": 20, "plan": 30,
		"udtf": 110, "controller": 28, "appsys": 22,
	}
	for layer, want := range wantMallocs {
		if selfMallocs[layer] != want {
			t.Errorf("self mallocs of %s = %d, want %d", layer, selfMallocs[layer], want)
		}
	}
	// Without the clamp the tree's self times add up to the root exactly.
	var sum int64
	for layer, ns := range selfNS {
		if layer != layerProbe {
			sum += ns
		}
	}
	if want := us(100) + us(8); sum != want {
		t.Errorf("tree self times sum to %d, want root + the clamped 8us = %d", sum, want)
	}
}

func TestSummarizeMediansAndMeans(t *testing.T) {
	traces := []stmtTrace{
		{rootNS: 100e3, selfNS: map[string]int64{"rpc": 50e3}, selfMallocs: map[string]int64{"rpc": 10}, probeNS: map[string]int64{"rpc.echo": 40e3}, counts: map[string]float64{"wfms.instances": 1}},
		{rootNS: 200e3, selfNS: map[string]int64{"rpc": 80e3}, selfMallocs: map[string]int64{"rpc": 12}, probeNS: map[string]int64{"rpc.echo": 60e3}, counts: map[string]float64{"wfms.instances": 0}, clamped: 1},
		{rootNS: 120e3, selfNS: map[string]int64{"rpc": 60e3}, selfMallocs: map[string]int64{"rpc": 11}, probeNS: map[string]int64{"rpc.echo": 50e3}, counts: map[string]float64{"wfms.instances": 2}},
	}
	res := summarize(traces, 100e3, nil)
	for name, want := range map[string]float64{
		"rpc.self_us": 60, "rpc.allocs": 11, "rpc.echo_us": 50, "wfms.instances": 1,
		"trace.client_exec_us": 120, "trace.overhead_ratio": 1.2, "trace.negative_self": 1.0 / 3,
	} {
		if got := res.Metrics[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := res.Shares["rpc"]; got != 0.5 {
		t.Errorf("rpc share = %v, want 0.5", got)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("summarize does not produce %s", m.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("summarize produces %d metrics, the catalogue has %d", len(res.Metrics), len(perLayer))
	}
}
