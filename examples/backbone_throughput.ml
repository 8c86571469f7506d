(* Backbone throughput: the end-to-end simulation, shortened.

   Drives the 24-city backbone for two weeks under each operating
   policy: static 100G wavelengths (today), static-at-maximum (more
   capacity but failure-prone), and the run/walk/crawl adaptive policy
   with both BVT reconfiguration procedures.

   Run with:  dune exec examples/backbone_throughput.exe
   (well under a second) *)

let () =
  let config =
    { Rwc_sim.Runner.default_config with Rwc_sim.Runner.days = 14.0 }
  in
  Printf.printf
    "simulating %.0f days on the %d-duct North-American backbone...\n\n"
    config.Rwc_sim.Runner.days
    (Array.length Rwc_topology.Backbone.north_america.Rwc_topology.Backbone.ducts);
  let reports = Rwc_sim.Runner.compare_policies ~config () in
  List.iter (fun r -> Format.printf "%a@." Rwc_sim.Runner.pp_report r) reports;
  let find p = List.find (fun r -> r.Rwc_sim.Runner.policy = p) reports in
  let static = find Rwc_sim.Runner.Static_100 in
  let adaptive = find (Rwc_sim.Runner.Adaptive Rwc_sim.Runner.Efficient) in
  Printf.printf
    "\nadaptive capacity delivered %.0f%% more traffic than the static 100G network\n"
    (100.0
    *. ((adaptive.Rwc_sim.Runner.avg_throughput_gbps
        /. static.Rwc_sim.Runner.avg_throughput_gbps)
       -. 1.0));
  Printf.printf
    "while turning hard failures into capacity flaps (%d failures vs %d flaps).\n"
    adaptive.Rwc_sim.Runner.failures adaptive.Rwc_sim.Runner.flaps
