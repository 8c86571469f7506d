open Rwc_core
module Graph = Rwc_flow.Graph

(* The paper's Figure 7 square: A=0, B=1, C=2, D=3.  Bidirectional
   100 Gbps links AB, CD, AC, BD; only AB and CD have the SNR to double
   their capacity. *)
let fig7 () =
  let g = Graph.create ~n:4 in
  let add a b =
    let e1 = Graph.add_edge g ~src:a ~dst:b ~capacity:100.0 ~cost:0.0 () in
    let e2 = Graph.add_edge g ~src:b ~dst:a ~capacity:100.0 ~cost:0.0 () in
    (e1, e2)
  in
  let ab, _ = add 0 1 in
  let cd, _ = add 2 3 in
  let ac, _ = add 0 2 in
  let bd, _ = add 1 3 in
  (g, ab, cd, ac, bd)

let upgradable ab cd e = if e = ab || e = cd then 100.0 else 0.0

(* --- augment ---------------------------------------------------------- *)

let test_augment_adds_fake_twins () =
  let g, ab, cd, _, _ = fig7 () in
  let aug =
    Augment.build ~headroom:(upgradable ab cd) ~penalty:Penalty.Zero g
  in
  Alcotest.(check int) "8 real + 2 fake" 10 (Graph.n_edges aug.Augment.graph);
  Alcotest.(check bool) "ab has twin" true (aug.Augment.fake_of_phys.(ab) <> None);
  Alcotest.(check bool) "cd has twin" true (aug.Augment.fake_of_phys.(cd) <> None);
  (* Fake twin parallels its physical edge. *)
  (match aug.Augment.fake_of_phys.(ab) with
  | Some id ->
      let fake = Graph.edge aug.Augment.graph id in
      let real = Graph.edge g ab in
      Alcotest.(check int) "same src" real.Graph.src fake.Graph.src;
      Alcotest.(check int) "same dst" real.Graph.dst fake.Graph.dst;
      Alcotest.(check (float 1e-9)) "headroom capacity" 100.0 fake.Graph.capacity
  | None -> Alcotest.fail "missing twin");
  (* Real edges keep their ids. *)
  Graph.iter_edges
    (fun e ->
      match e.Graph.tag with
      | Augment.Real p -> Alcotest.(check int) "id preserved" p e.Graph.id
      | Augment.Fake _ -> ())
    aug.Augment.graph

let test_augment_penalty_on_fake_only () =
  let g, ab, cd, _, _ = fig7 () in
  let aug =
    Augment.build ~headroom:(upgradable ab cd) ~penalty:(Penalty.Uniform 42.0) g
  in
  Graph.iter_edges
    (fun e ->
      match e.Graph.tag with
      | Augment.Real _ -> Alcotest.(check (float 1e-9)) "real free" 0.0 e.Graph.cost
      | Augment.Fake _ -> Alcotest.(check (float 1e-9)) "fake charged" 42.0 e.Graph.cost)
    aug.Augment.graph

let test_augment_weight_on_both () =
  let g, ab, cd, _, _ = fig7 () in
  let aug =
    Augment.build ~weight:(fun _ -> 1.0) ~headroom:(upgradable ab cd)
      ~penalty:(Penalty.Uniform 10.0) g
  in
  Graph.iter_edges
    (fun e ->
      match e.Graph.tag with
      | Augment.Real _ -> Alcotest.(check (float 1e-9)) "unit weight" 1.0 e.Graph.cost
      | Augment.Fake _ -> Alcotest.(check (float 1e-9)) "weight + penalty" 11.0 e.Graph.cost)
    aug.Augment.graph

let test_augment_drop_fake () =
  let g, ab, cd, _, _ = fig7 () in
  let aug = Augment.build ~headroom:(upgradable ab cd) ~penalty:Penalty.Zero g in
  let aug' = Augment.drop_fake aug ~phys:[ ab ] in
  Alcotest.(check int) "one fake gone" 9 (Graph.n_edges aug'.Augment.graph);
  Alcotest.(check bool) "ab twin removed" true (aug'.Augment.fake_of_phys.(ab) = None);
  Alcotest.(check bool) "cd twin kept" true (aug'.Augment.fake_of_phys.(cd) <> None);
  (* Dropping an edge without a twin is a no-op. *)
  let aug'' = Augment.drop_fake aug' ~phys:[ ab ] in
  Alcotest.(check int) "idempotent" 9 (Graph.n_edges aug''.Augment.graph)

(* --- the Figure 7 worked example --------------------------------------- *)

(* Demands A->B and C->D grow to 125 each.  Penalties are proportional
   to the traffic each link currently carries (the paper's suggested
   penalty function): AB carries 100, CD carries 80.  The penalty-
   minimizing solution must upgrade only the CHEAPER link (CD) and
   route the other commodity's overflow through it across the square,
   exactly the paper's "updating one link's capacity suffices". *)
let test_fig7_single_upgrade_suffices () =
  let g, ab, cd, _, _ = fig7 () in
  let traffic = Array.make (Graph.n_edges g) 0.0 in
  traffic.(ab) <- 100.0;
  traffic.(cd) <- 80.0;
  let aug =
    Augment.build ~headroom:(upgradable ab cd)
      ~penalty:(Penalty.Traffic_proportional traffic) g
  in
  (* Join both demands through a super-source/sink so one min-cost
     computation covers the example: S -> A (125), S -> C (125),
     B -> T (125), D -> T (125). *)
  let n = Graph.n_vertices aug.Augment.graph in
  let g' = Graph.create ~n:(n + 2) in
  let s = n and t = n + 1 in
  Graph.iter_edges
    (fun e ->
      ignore
        (Graph.add_edge g' ~src:e.Graph.src ~dst:e.Graph.dst
           ~capacity:e.Graph.capacity ~cost:e.Graph.cost (Some e.Graph.tag)))
    aug.Augment.graph;
  List.iter
    (fun (src, dst) ->
      ignore (Graph.add_edge g' ~src ~dst ~capacity:125.0 ~cost:0.0 None))
    [ (s, 0); (s, 2); (1, t); (3, t) ];
  let r = Rwc_flow.Mincost.solve g' ~src:s ~dst:t in
  Alcotest.(check (float 1e-6)) "all 250 routed" 250.0 r.Rwc_flow.Mincost.value;
  (* Count upgraded links: fake edges carrying flow. *)
  let upgraded = ref [] in
  Graph.iter_edges
    (fun e ->
      match e.Graph.tag with
      | Some (Augment.Fake phys) ->
          if r.Rwc_flow.Mincost.flow.(e.Graph.id) > 1e-6 then
            upgraded := phys :: !upgraded
      | Some (Augment.Real _) | None -> ())
    g';
  Alcotest.(check (list int)) "only the cheaper link upgraded" [ cd ] !upgraded;
  (* Both 25 Gbps overflows cross the one upgraded link: 50 x 80. *)
  Alcotest.(check (float 1e-4)) "penalty-minimal cost" 4000.0 r.Rwc_flow.Mincost.cost

(* --- translate ---------------------------------------------------------- *)

(* Single upgradable 100 Gbps link pushed to 150: 100 real + 50 fake. *)
let one_link () =
  let g = Graph.create ~n:2 in
  let e = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  (g, e)

let test_translate_decisions () =
  let g, e = one_link () in
  let aug =
    Augment.build ~headroom:(fun _ -> 100.0) ~penalty:(Penalty.Uniform 100.0) g
  in
  let r = Rwc_flow.Mincost.solve ~limit:150.0 aug.Augment.graph ~src:0 ~dst:1 in
  let ds = Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
  Alcotest.(check int) "one decision" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check int) "on the link" e d.Translate.phys_edge;
  Alcotest.(check (float 1e-6)) "extra 50" 50.0 d.Translate.extra_gbps;
  Alcotest.(check (float 1e-4)) "penalty 5000" 5000.0 d.Translate.penalty_paid;
  Alcotest.(check (float 1e-6)) "totals" 50.0 (Translate.total_extra ds);
  (* Physical flow view: the link carries 150 after the upgrade. *)
  let pf = Translate.phys_flow aug ~flow:r.Rwc_flow.Mincost.flow in
  Alcotest.(check (float 1e-6)) "combined flow" 150.0 pf.(e)

let test_translate_penalty_excludes_weight () =
  let g, _ = one_link () in
  let aug =
    Augment.build ~weight:(fun _ -> 1.0) ~headroom:(fun _ -> 100.0)
      ~penalty:(Penalty.Uniform 100.0) g
  in
  let r = Rwc_flow.Mincost.solve ~limit:150.0 aug.Augment.graph ~src:0 ~dst:1 in
  let ds = Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
  Alcotest.(check (float 1e-4)) "pure penalty, no weight" 5000.0
    (Translate.total_penalty ds)

let test_translate_apply () =
  let g, ab, cd, _, _ = fig7 () in
  let ds =
    [ { Translate.phys_edge = ab; extra_gbps = 100.0; penalty_paid = 0.0 } ]
  in
  let g' = Translate.apply g ds in
  Alcotest.(check (float 1e-9)) "ab upgraded" 200.0 (Graph.edge g' ab).Graph.capacity;
  Alcotest.(check (float 1e-9)) "cd untouched" 100.0 (Graph.edge g' cd).Graph.capacity;
  Alcotest.(check int) "structure preserved" (Graph.n_edges g) (Graph.n_edges g')

let test_snapped_capacity () =
  Alcotest.(check bool) "125 for +20" true
    (Translate.snapped_capacity ~current_gbps:100.0 ~extra_gbps:20.0 = Some 125);
  Alcotest.(check bool) "exact step" true
    (Translate.snapped_capacity ~current_gbps:100.0 ~extra_gbps:50.0 = Some 150);
  Alcotest.(check bool) "beyond hardware" true
    (Translate.snapped_capacity ~current_gbps:150.0 ~extra_gbps:60.0 = None);
  Alcotest.(check bool) "zero extra stays" true
    (Translate.snapped_capacity ~current_gbps:100.0 ~extra_gbps:0.0 = Some 100)

(* --- Theorem 1 (property) ----------------------------------------------- *)

let random_instance_gen =
  QCheck.Gen.(
    let* n = int_range 3 7 in
    let* m = int_range 2 (2 * n) in
    let* edges =
      list_repeat m
        (triple
           (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
           (int_range 1 10)  (* capacity *)
           (pair (int_range 0 8) (int_range 0 5)) (* headroom, penalty *))
    in
    return (n, edges))

let arbitrary_instance =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d %s" n
        (String.concat ";"
           (List.map
              (fun ((s, d), c, (u, p)) ->
                Printf.sprintf "%d->%d c%d u%d p%d" s d c u p)
              edges)))
    random_instance_gen

let build_instance (n, edges) =
  let g = Graph.create ~n in
  let headroom = Hashtbl.create 8 in
  let penalty = Hashtbl.create 8 in
  List.iter
    (fun ((s, d), c, (u, p)) ->
      if s <> d then begin
        let id =
          Graph.add_edge g ~src:s ~dst:d ~capacity:(float_of_int c) ~cost:0.0 ()
        in
        Hashtbl.replace headroom id (float_of_int u);
        Hashtbl.replace penalty id (float_of_int p)
      end)
    edges;
  (g, (fun e -> Hashtbl.find headroom e), fun e -> Hashtbl.find penalty e)

let prop_theorem1_value =
  (* Min-cost max-flow on G' attains the max-flow of the fully-upgraded
     physical graph (Theorem 1's value statement). *)
  QCheck.Test.make ~name:"theorem 1: augmented value = upgraded max-flow"
    ~count:200 arbitrary_instance (fun spec ->
      let g, headroom, _ = build_instance spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let aug = Augment.build ~headroom ~penalty:Penalty.Zero g in
      let augmented = Rwc_flow.Mincost.solve aug.Augment.graph ~src ~dst in
      let upgraded =
        Graph.map_edges g (fun e ->
            (e.Graph.capacity +. headroom e.Graph.id, 0.0, e.Graph.tag))
      in
      let reference = Rwc_flow.Maxflow.solve upgraded ~src ~dst in
      Float.abs (augmented.Rwc_flow.Mincost.value -. reference.Rwc_flow.Maxflow.value)
      < 1e-5)

let prop_theorem1_translation_realizable =
  (* Applying the translated upgrade decisions to the physical topology
     yields a graph where the same flow value is feasible. *)
  QCheck.Test.make ~name:"theorem 1: translated upgrades realize the flow"
    ~count:200 arbitrary_instance (fun spec ->
      let g, headroom, penalty_of = build_instance spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let penalty =
        Penalty.Traffic_proportional
          (Array.init (max 1 (Graph.n_edges g)) (fun i ->
               try penalty_of i with Not_found -> 0.0))
      in
      let aug = Augment.build ~headroom ~penalty g in
      let r = Rwc_flow.Mincost.solve aug.Augment.graph ~src ~dst in
      let ds = Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
      let g' = Translate.apply g ds in
      let check = Rwc_flow.Maxflow.solve g' ~src ~dst in
      check.Rwc_flow.Maxflow.value >= r.Rwc_flow.Mincost.value -. 1e-5)

let prop_zero_penalty_upgrades_free =
  (* With zero penalties the min-cost solution's cost is zero: fake
     edges cost nothing, so the optimizer may upgrade freely. *)
  QCheck.Test.make ~name:"zero penalty means zero cost" ~count:100
    arbitrary_instance (fun spec ->
      let g, headroom, _ = build_instance spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let aug = Augment.build ~headroom ~penalty:Penalty.Zero g in
      let r = Rwc_flow.Mincost.solve aug.Augment.graph ~src ~dst in
      Float.abs r.Rwc_flow.Mincost.cost < 1e-6)

let prop_drop_fake_only_reduces =
  QCheck.Test.make ~name:"dropping fakes never increases max-flow" ~count:100
    arbitrary_instance (fun spec ->
      let g, headroom, _ = build_instance spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let aug = Augment.build ~headroom ~penalty:Penalty.Zero g in
      let before = Rwc_flow.Maxflow.solve aug.Augment.graph ~src ~dst in
      let phys = List.init (Graph.n_edges g) Fun.id in
      let aug' = Augment.drop_fake aug ~phys in
      let after = Rwc_flow.Maxflow.solve aug'.Augment.graph ~src ~dst in
      after.Rwc_flow.Maxflow.value <= before.Rwc_flow.Maxflow.value +. 1e-6)

(* --- gadget -------------------------------------------------------------- *)

let test_gadget_fig8_unsplittable () =
  (* Figure 8: a single 100 Gbps link A->B with 100 Gbps headroom.  In
     the parallel-edge augmentation no single path exceeds 100; the
     gadget exposes a single 200 Gbps path. *)
  let g = Graph.create ~n:2 in
  let e = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  let aug =
    Augment.build ~headroom:(fun _ -> 100.0) ~penalty:(Penalty.Uniform 100.0) g
  in
  (* Parallel-edge abstraction: widest single path is only 100. *)
  let widest_parallel =
    List.fold_left
      (fun acc eid ->
        Float.max acc (Graph.edge aug.Augment.graph eid).Graph.capacity)
      0.0
      (Graph.out_edges aug.Augment.graph 0)
  in
  Alcotest.(check (float 1e-9)) "parallel caps at 100" 100.0 widest_parallel;
  let gad =
    Gadget.build ~headroom:(fun _ -> 100.0) ~penalty:(Penalty.Uniform 100.0) g
  in
  Alcotest.(check (float 1e-9)) "gadget exposes 200 on one path" 200.0
    (Gadget.max_single_path_capacity gad ~src:0 ~dst:1);
  (* Total (splittable) capacity is still capped at 200, not 300. *)
  let mf = Rwc_flow.Maxflow.solve gad.Gadget.graph ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-6)) "series edge caps total" 200.0 mf.Rwc_flow.Maxflow.value;
  ignore e

let test_gadget_no_headroom_plain () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  let gad = Gadget.build ~headroom:(fun _ -> 0.0) ~penalty:Penalty.Zero g in
  Alcotest.(check int) "no extra vertices" 2 (Graph.n_vertices gad.Gadget.graph);
  Alcotest.(check int) "single plain edge" 1 (Graph.n_edges gad.Gadget.graph)

let test_gadget_upgrades_read_back () =
  let g = Graph.create ~n:2 in
  let e = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  let gad = Gadget.build ~headroom:(fun _ -> 100.0) ~penalty:(Penalty.Uniform 1.0) g in
  (* Demand 150 forces use of the replacement edge. *)
  let r = Rwc_flow.Mincost.solve ~limit:150.0 gad.Gadget.graph ~src:0 ~dst:1 in
  match Gadget.upgrades gad ~flow:r.Rwc_flow.Mincost.flow with
  | [ (phys, amount) ] ->
      Alcotest.(check int) "right link" e phys;
      Alcotest.(check bool) "at least the overflow" true (amount >= 50.0 -. 1e-6)
  | l -> Alcotest.failf "expected one upgrade, got %d" (List.length l)

let prop_gadget_preserves_maxflow =
  (* The gadget must not change the splittable max-flow value compared
     to the parallel-edge augmentation. *)
  QCheck.Test.make ~name:"gadget preserves max-flow value" ~count:150
    arbitrary_instance (fun spec ->
      let g, headroom, _ = build_instance spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let aug = Augment.build ~headroom ~penalty:Penalty.Zero g in
      let gad = Gadget.build ~headroom ~penalty:Penalty.Zero g in
      let a = Rwc_flow.Maxflow.solve aug.Augment.graph ~src ~dst in
      let b = Rwc_flow.Maxflow.solve gad.Gadget.graph ~src ~dst in
      Float.abs (a.Rwc_flow.Maxflow.value -. b.Rwc_flow.Maxflow.value) < 1e-5)

(* --- adapt ----------------------------------------------------------------- *)

let test_adapt_rejects_bad_initial () =
  Alcotest.check_raises "not a denomination"
    (Invalid_argument "Adapt.create: not a modulation denomination") (fun () ->
      ignore (Adapt.create ~initial_gbps:110 ()))

let test_adapt_down_immediate () =
  let t = Adapt.create ~initial_gbps:100 () in
  match Adapt.step t ~snr_db:5.0 with
  | Adapt.Step_down { from_gbps = 100; to_gbps = 50 } ->
      Alcotest.(check int) "now at 50" 50 (Adapt.capacity_gbps t)
  | _ -> Alcotest.fail "expected immediate step down"

let test_adapt_dark_and_back () =
  let t = Adapt.create ~initial_gbps:100 () in
  (match Adapt.step t ~snr_db:1.0 with
  | Adapt.Go_dark { from_gbps = 100 } -> ()
  | _ -> Alcotest.fail "expected dark");
  Alcotest.(check int) "dark = 0" 0 (Adapt.capacity_gbps t);
  (match Adapt.step t ~snr_db:1.0 with
  | Adapt.No_change -> ()
  | _ -> Alcotest.fail "stays dark");
  match Adapt.step t ~snr_db:7.0 with
  | Adapt.Come_back { to_gbps = 100 } ->
      Alcotest.(check int) "restored" 100 (Adapt.capacity_gbps t)
  | _ -> Alcotest.fail "expected come back"

let test_adapt_up_needs_hold () =
  let config = { Adapt.up_margin_db = 0.5; hold_samples = 3 } in
  let t = Adapt.create ~config ~initial_gbps:100 () in
  (* 125 needs 8.0 + 0.5 margin = 8.5. *)
  Alcotest.(check bool) "1st qualifying: no" true (Adapt.step t ~snr_db:9.0 = Adapt.No_change);
  Alcotest.(check bool) "2nd qualifying: no" true (Adapt.step t ~snr_db:9.0 = Adapt.No_change);
  (match Adapt.step t ~snr_db:9.0 with
  | Adapt.Step_up { from_gbps = 100; to_gbps = 125 } -> ()
  | _ -> Alcotest.fail "3rd qualifying sample should step up");
  Alcotest.(check int) "at 125" 125 (Adapt.capacity_gbps t)

let test_adapt_streak_resets () =
  let config = { Adapt.up_margin_db = 0.5; hold_samples = 3 } in
  let t = Adapt.create ~config ~initial_gbps:100 () in
  ignore (Adapt.step t ~snr_db:9.0);
  ignore (Adapt.step t ~snr_db:9.0);
  (* Dip below the qualifying margin (but above current threshold). *)
  ignore (Adapt.step t ~snr_db:7.0);
  Alcotest.(check bool) "streak reset" true (Adapt.step t ~snr_db:9.0 = Adapt.No_change);
  Alcotest.(check int) "still 100" 100 (Adapt.capacity_gbps t)

let test_adapt_one_step_at_a_time_up () =
  let config = { Adapt.up_margin_db = 0.0; hold_samples = 1 } in
  let t = Adapt.create ~config ~initial_gbps:100 () in
  (* SNR good for 200, but steps go 100 -> 125 -> 150 -> 175 -> 200. *)
  let expected = [ 125; 150; 175; 200 ] in
  List.iter
    (fun want ->
      match Adapt.step t ~snr_db:20.0 with
      | Adapt.Step_up { to_gbps; _ } -> Alcotest.(check int) "gradual" want to_gbps
      | _ -> Alcotest.fail "expected step up")
    expected;
  Alcotest.(check bool) "no further" true (Adapt.step t ~snr_db:20.0 = Adapt.No_change)

let test_adapt_down_multi_step () =
  let config = { Adapt.up_margin_db = 0.0; hold_samples = 1 } in
  let t = Adapt.create ~config ~initial_gbps:200 () in
  (* Straight from 200 to 50 when the SNR collapses. *)
  match Adapt.step t ~snr_db:4.0 with
  | Adapt.Step_down { from_gbps = 200; to_gbps = 50 } -> ()
  | _ -> Alcotest.fail "expected multi-step crawl"

let test_adapt_run_trace_counts () =
  let trace = [| 20.0; 20.0; 20.0; 20.0; 20.0; 1.0; 7.0; 7.0 |] in
  let config = { Adapt.up_margin_db = 0.0; hold_samples = 1 } in
  let actions = Adapt.run_trace ~config ~initial_gbps:100 trace in
  Alcotest.(check int) "same length" (Array.length trace) (Array.length actions);
  Alcotest.(check bool) "counts reconfigurations" true
    (Adapt.reconfigurations actions >= 5)

(* --- availability ------------------------------------------------------------ *)

let flat_trace n v = Array.make n v

let test_availability_static_clean () =
  let o = Availability.evaluate (Availability.Static 100) (flat_trace 96 15.0) in
  Alcotest.(check (float 1e-9)) "always up" 1.0 o.Availability.availability;
  Alcotest.(check (float 1e-9)) "full rate" 100.0 o.Availability.mean_capacity_gbps;
  Alcotest.(check int) "no failures" 0 o.Availability.failures

let test_availability_static_fails_below_threshold () =
  let trace = Array.concat [ flat_trace 48 15.0; flat_trace 24 5.0; flat_trace 24 15.0 ] in
  let o = Availability.evaluate (Availability.Static 100) trace in
  Alcotest.(check (float 1e-9)) "75% up" 0.75 o.Availability.availability;
  Alcotest.(check int) "one failure" 1 o.Availability.failures

let test_availability_adaptive_flaps_instead () =
  let trace = Array.concat [ flat_trace 48 15.0; flat_trace 24 5.0; flat_trace 24 15.0 ] in
  let policy =
    Availability.Adaptive
      {
        config = { Adapt.up_margin_db = 0.0; hold_samples = 1 };
        reconfig_downtime_s = 68.0;
      }
  in
  let o = Availability.evaluate policy trace in
  (* SNR 5.0 supports 50G: the link flaps down instead of failing. *)
  Alcotest.(check int) "no hard failure" 0 o.Availability.failures;
  Alcotest.(check bool) "flapped" true (o.Availability.flaps >= 1);
  Alcotest.(check (float 1e-6)) "never down a full sample" 1.0 o.Availability.availability;
  Alcotest.(check bool) "paid reconfig downtime" true
    (o.Availability.reconfig_downtime_s > 0.0)

let test_availability_adaptive_beats_static_capacity () =
  (* High stable SNR: the adaptive link climbs to 200G and delivers more. *)
  let trace = flat_trace 96 20.0 in
  let static = Availability.evaluate (Availability.Static 100) trace in
  let adaptive =
    Availability.evaluate
      (Availability.Adaptive
         {
           config = { Adapt.up_margin_db = 0.5; hold_samples = 4 };
           reconfig_downtime_s = 0.035;
         })
      trace
  in
  Alcotest.(check bool) "more delivered" true
    (adaptive.Availability.delivered_pbit > static.Availability.delivered_pbit);
  (* The controller climbs 100 -> 125 -> 150 -> 175 -> 200, spending
     hold_samples at each rung, so the 24 h average sits below 200. *)
  Alcotest.(check bool) "well above 100G average" true
    (adaptive.Availability.mean_capacity_gbps > 180.0
    && adaptive.Availability.mean_capacity_gbps <= 200.0)

let test_availability_efficient_cheaper_than_stock () =
  let rng = Rwc_stats.Rng.create 31 in
  let p = Rwc_telemetry.Snr_model.default_params ~baseline_db:13.0 () in
  let trace, _ = Rwc_telemetry.Snr_model.generate rng p ~years:1.0 in
  let run downtime =
    Availability.evaluate
      (Availability.Adaptive
         { config = Adapt.default_config; reconfig_downtime_s = downtime })
      trace
  in
  let stock = run 68.0 and efficient = run 0.035 in
  Alcotest.(check bool) "less downtime" true
    (efficient.Availability.reconfig_downtime_s
    < stock.Availability.reconfig_downtime_s);
  Alcotest.(check bool) "at least as much delivered" true
    (efficient.Availability.delivered_pbit
    >= stock.Availability.delivered_pbit -. 1e-9)

(* --- te ------------------------------------------------------------------------ *)

let te_square () =
  let g = Graph.create ~n:4 in
  let add a b cap =
    ignore (Graph.add_edge g ~src:a ~dst:b ~capacity:cap ~cost:1.0 ());
    ignore (Graph.add_edge g ~src:b ~dst:a ~capacity:cap ~cost:1.0 ())
  in
  add 0 1 100.0;
  add 1 3 100.0;
  add 0 2 100.0;
  add 2 3 100.0;
  g

let test_te_mcf_routes_feasible () =
  let g = te_square () in
  let r =
    Te.mcf ~epsilon:0.05 g
      [| { Rwc_flow.Multicommodity.src = 0; dst = 3; demand = 150.0 } |]
  in
  (* Two disjoint 2-hop paths: up to 200 available. *)
  Alcotest.(check bool) "routes most of 150" true (r.Te.total_gbps > 130.0);
  Alcotest.(check bool) "respects capacity" true (Te.utilization g r <= 1.0 +. 1e-6)

let test_te_greedy_ksp () =
  let g = te_square () in
  let r =
    Te.greedy_ksp ~k:3 g
      [|
        { Rwc_flow.Multicommodity.src = 0; dst = 3; demand = 150.0 };
        { Rwc_flow.Multicommodity.src = 1; dst = 2; demand = 20.0 };
      |]
  in
  Alcotest.(check bool) "routes the elephant fully" true (r.Te.routed.(0) >= 150.0 -. 1e-6);
  Alcotest.(check bool) "capacity respected" true (Te.utilization g r <= 1.0 +. 1e-6)

let test_te_oblivious_to_augmentation () =
  (* The same TE entry point accepts the augmented graph and uses the
     fake capacity, without any code change: the paper's central claim. *)
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  let commodity = [| { Rwc_flow.Multicommodity.src = 0; dst = 1; demand = 180.0 } |] in
  let plain = Te.mcf ~epsilon:0.05 g commodity in
  let aug = Augment.build ~headroom:(fun _ -> 100.0) ~penalty:Penalty.Zero g in
  let augmented = Te.mcf ~epsilon:0.05 aug.Augment.graph commodity in
  Alcotest.(check bool) "plain capped at 100" true (plain.Te.total_gbps <= 100.0 +. 1e-6);
  Alcotest.(check bool) "augmented exceeds 150" true (augmented.Te.total_gbps > 150.0)

(* --- penalty ----------------------------------------------------------------------- *)

let test_penalty_variants () =
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Penalty.evaluate Penalty.Zero ~phys_edge_id:3);
  Alcotest.(check (float 1e-9)) "uniform" 7.0
    (Penalty.evaluate (Penalty.Uniform 7.0) ~phys_edge_id:3);
  Alcotest.(check (float 1e-9)) "traffic" 42.0
    (Penalty.evaluate (Penalty.Traffic_proportional [| 0.0; 0.0; 0.0; 42.0 |]) ~phys_edge_id:3);
  Alcotest.(check (float 1e-9)) "disruption stock vs efficient" (42.0 *. 68.0)
    (Penalty.evaluate
       (Penalty.Disruption_aware { traffic = [| 0.0; 0.0; 0.0; 42.0 |]; downtime_s = 68.0 })
       ~phys_edge_id:3)

let test_class_weighted_penalty () =
  let interactive = [| 10.0; 0.0 |] in
  let bulk = [| 50.0; 20.0 |] in
  let p = Penalty.Class_weighted [ (5.0, interactive); (1.0, bulk) ] in
  (* Edge 0: 5*10 + 1*50 = 100; edge 1: 0 + 20. *)
  Alcotest.(check (float 1e-9)) "edge 0" 100.0 (Penalty.evaluate p ~phys_edge_id:0);
  Alcotest.(check (float 1e-9)) "edge 1" 20.0 (Penalty.evaluate p ~phys_edge_id:1)

let test_class_weighted_steers_upgrades () =
  (* Two identical upgradable links; one carries interactive traffic.
     The optimizer must upgrade the other. *)
  let g = Graph.create ~n:2 in
  let hot = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  let cold = Graph.add_edge g ~src:0 ~dst:1 ~capacity:100.0 ~cost:0.0 () in
  let interactive = Array.make 2 0.0 in
  interactive.(hot) <- 40.0;
  let bulk = Array.make 2 10.0 in
  let penalty = Penalty.Class_weighted [ (10.0, interactive); (1.0, bulk) ] in
  let aug = Augment.build ~headroom:(fun _ -> 100.0) ~penalty g in
  let r = Rwc_flow.Mincost.solve ~limit:250.0 aug.Augment.graph ~src:0 ~dst:1 in
  let ds = Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
  Alcotest.(check (float 1e-6)) "all routed" 250.0 r.Rwc_flow.Mincost.value;
  match ds with
  | [ d ] -> Alcotest.(check int) "upgrades the cold link" cold d.Translate.phys_edge
  | _ -> Alcotest.failf "expected exactly one upgrade, got %d" (List.length ds)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_theorem1_value;
      prop_theorem1_translation_realizable;
      prop_zero_penalty_upgrades_free;
      prop_drop_fake_only_reduces;
      prop_gadget_preserves_maxflow;
    ]

let suite =
  [
    Alcotest.test_case "augment adds fake twins" `Quick test_augment_adds_fake_twins;
    Alcotest.test_case "penalty on fake only" `Quick test_augment_penalty_on_fake_only;
    Alcotest.test_case "weight on both" `Quick test_augment_weight_on_both;
    Alcotest.test_case "drop fake" `Quick test_augment_drop_fake;
    Alcotest.test_case "fig7: one upgrade suffices" `Quick test_fig7_single_upgrade_suffices;
    Alcotest.test_case "translate decisions" `Quick test_translate_decisions;
    Alcotest.test_case "translate penalty excludes weight" `Quick
      test_translate_penalty_excludes_weight;
    Alcotest.test_case "translate apply" `Quick test_translate_apply;
    Alcotest.test_case "snapped capacity" `Quick test_snapped_capacity;
    Alcotest.test_case "gadget fig8 unsplittable" `Quick test_gadget_fig8_unsplittable;
    Alcotest.test_case "gadget plain edge" `Quick test_gadget_no_headroom_plain;
    Alcotest.test_case "gadget upgrades read back" `Quick test_gadget_upgrades_read_back;
    Alcotest.test_case "adapt rejects bad initial" `Quick test_adapt_rejects_bad_initial;
    Alcotest.test_case "adapt down immediate" `Quick test_adapt_down_immediate;
    Alcotest.test_case "adapt dark and back" `Quick test_adapt_dark_and_back;
    Alcotest.test_case "adapt up needs hold" `Quick test_adapt_up_needs_hold;
    Alcotest.test_case "adapt streak resets" `Quick test_adapt_streak_resets;
    Alcotest.test_case "adapt gradual up" `Quick test_adapt_one_step_at_a_time_up;
    Alcotest.test_case "adapt multi-step crawl" `Quick test_adapt_down_multi_step;
    Alcotest.test_case "adapt run_trace" `Quick test_adapt_run_trace_counts;
    Alcotest.test_case "availability static clean" `Quick test_availability_static_clean;
    Alcotest.test_case "availability static fails" `Quick
      test_availability_static_fails_below_threshold;
    Alcotest.test_case "availability adaptive flaps" `Quick
      test_availability_adaptive_flaps_instead;
    Alcotest.test_case "availability adaptive capacity" `Quick
      test_availability_adaptive_beats_static_capacity;
    Alcotest.test_case "availability efficient vs stock" `Quick
      test_availability_efficient_cheaper_than_stock;
    Alcotest.test_case "te mcf feasible" `Quick test_te_mcf_routes_feasible;
    Alcotest.test_case "te greedy ksp" `Quick test_te_greedy_ksp;
    Alcotest.test_case "te oblivious to augmentation" `Quick test_te_oblivious_to_augmentation;
    Alcotest.test_case "penalty variants" `Quick test_penalty_variants;
    Alcotest.test_case "class-weighted penalty" `Quick test_class_weighted_penalty;
    Alcotest.test_case "class-weighted steers upgrades" `Quick
      test_class_weighted_steers_upgrades;
  ]
  @ props
