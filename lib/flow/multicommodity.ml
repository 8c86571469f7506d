type commodity = { src : int; dst : int; demand : float }

type result = {
  lambda : float;
  flow : float array;
  routed : float array;
}

type certified = { result : result; lambda_upper : float }

let total_throughput r = Array.fold_left ( +. ) 0.0 r.routed

let m_phases = Rwc_obs.Metrics.counter "mcf/phases"
let m_paths = Rwc_obs.Metrics.counter "mcf/augmenting_paths"
let m_phase_cap_hits = Rwc_obs.Metrics.counter "mcf/phase_cap_hits"
let m_dual_rechecks = Rwc_obs.Metrics.counter "mcf/dual_rechecks"
let m_trees = Rwc_obs.Metrics.counter "mcf/trees"
let m_path_reuses = Rwc_obs.Metrics.counter "mcf/path_reuses"

let max_phases = 10_000

(* The dual objective sum_e length(e) * c(e) over usable edges, summed
   in edge-id order, compared with 1.  The sum is also stored in
   [dual.(0)], which resyncs the running estimate; a bool, not the
   float sum, is returned so the call allocates nothing. *)
let dual_below_one length cap dual =
  Rwc_obs.Metrics.incr m_dual_rechecks;
  let acc = ref 0.0 in
  for e = 0 to Array.length length - 1 do
    if cap.(e) > 0.0 then acc := !acc +. (length.(e) *. cap.(e))
  done;
  dual.(0) <- !acc;
  !acc < 1.0

(* Between exact sums, [dual.(0)] is kept up to date by adding
   (new - old) * c(e) for each length update.  Its rounding error is a
   few ulps per update, orders of magnitude below [margin], so an
   estimate under 1 - margin proves the exact sum is under 1 too; any
   other estimate is settled by the exact sum.  Every test thus
   answers as the exact sum would. *)
let margin = 1e-6

(* The commodities grouped by source, each group's commodities in
   input order.  Sources go largest total demand first (ties in order
   of first appearance), as B4 allocates elephants before the long
   tail: within a phase the sources routed first see the shortest
   paths. *)
let group_by_source commodities =
  let order = ref [] in
  let members = Hashtbl.create 16 in
  Array.iteri
    (fun j c ->
      match Hashtbl.find_opt members c.src with
      | Some js -> Hashtbl.replace members c.src (j :: js)
      | None ->
          order := c.src :: !order;
          Hashtbl.add members c.src [ j ])
    commodities;
  let groups =
    List.rev_map
      (fun s -> (s, Array.of_list (List.rev (Hashtbl.find members s))))
      !order
    |> Array.of_list
  in
  let total (_, js) = Array.fold_left (fun acc j -> acc +. commodities.(j).demand) 0.0 js in
  Array.stable_sort (fun a b -> Float.compare (total b) (total a)) groups;
  groups

(* Garg-Könemann's dual bound.  For any non-negative lengths l,
   lambda* <= D(l) / alpha(l), where D(l) = sum_e l(e) c(e) and
   alpha(l) = sum_j demand_j * dist_l(src_j, dst_j); alpha takes one
   shortest-path tree per source.  The trees are grown on l times the
   power of two that lifts the least usable length into [1, 2).
   Scaling by a power of two commutes with rounding, so the scaled
   distances are the exact ones scaled, and the workspace's absolute
   1e-12 slack becomes a relative error of at most 1e-12 instead of
   deciding between lengths far below it. *)
let dual_bound ws ~length ~cap commodities groups =
  let m = Array.length length in
  let least = ref infinity in
  for e = 0 to m - 1 do
    if cap.(e) > 0.0 && length.(e) < !least then least := length.(e)
  done;
  let scale =
    if Float.is_finite !least then
      Float.ldexp 1.0 (min 1000 (1 - snd (Float.frexp !least)))
    else 1.0
  in
  let scaled = Array.map (fun l -> l *. scale) length in
  let d = ref 0.0 in
  for e = 0 to m - 1 do
    if cap.(e) > 0.0 then d := !d +. (scaled.(e) *. cap.(e))
  done;
  let dsts = Array.make (Array.length commodities) 0 in
  let alpha = ref 0.0 in
  Array.iter
    (fun (src, js) ->
      Array.iteri (fun i j -> dsts.(i) <- commodities.(j).dst) js;
      Rwc_obs.Metrics.incr m_trees;
      Shortest.Workspace.tree ws ~length:scaled ~src ~dsts ~n_dsts:(Array.length js);
      Array.iter
        (fun j ->
          let c = commodities.(j) in
          alpha := !alpha +. (c.demand *. Shortest.Workspace.distance ws c.dst))
        js)
    groups;
  if !alpha > 0.0 then !d /. !alpha else infinity

(* Commodity [j]'s flow, kept sparse: slot [s < count] holds an edge
   the commodity has used and the flow it has put there.  Slots are
   only ever appended, so a slot index stays valid for the whole solve,
   and a commodity's path is stored as its edges' slots. *)
type sparse = {
  mutable edge : int array;
  mutable amount : float array;
  mutable count : int;
}

(* [a] doubled (to at least 16 entries), its first [len] kept. *)
let grow a ~len zero =
  let b = Array.make (max 16 (2 * Array.length a)) zero in
  Array.blit a 0 b 0 len;
  b

let add_slot sp e =
  if sp.count = Array.length sp.edge then begin
    sp.edge <- grow sp.edge ~len:sp.count 0;
    sp.amount <- grow sp.amount ~len:sp.count 0.0
  end;
  sp.edge.(sp.count) <- e;
  sp.count <- sp.count + 1;
  sp.count - 1

(* The slot writes of the current phase, each with the value it
   replaced, so that a phase cut short can be undone exactly. *)
type undo = {
  mutable com : int array;
  mutable slot : int array;
  mutable old : float array;
  mutable len : int;
}

let grow_undo u =
  u.com <- grow u.com ~len:u.len 0;
  u.slot <- grow u.slot ~len:u.len 0;
  u.old <- grow u.old ~len:u.len 0.0

(* Reads the old value itself: a float argument would be boxed. *)
let[@inline] log_write u j sp s =
  if u.len = Array.length u.com then grow_undo u;
  u.com.(u.len) <- j;
  u.slot.(u.len) <- s;
  u.old.(u.len) <- sp.amount.(s);
  u.len <- u.len + 1

(* Scale to feasibility: first a global factor bringing the worst
   edge back within capacity, then a per-commodity cap so nobody
   ships more than its demand (phases over-route when the network
   has slack).  Per-commodity shrinking preserves edge feasibility
   and flow conservation.  Each pass costs O(nonzeros). *)
let scale_to_feasible g commodities flows routed_kept =
  let m = Graph.n_edges g and n_com = Array.length commodities in
  let accumulated = Array.make m 0.0 in
  Array.iter
    (fun sp ->
      for s = 0 to sp.count - 1 do
        accumulated.(sp.edge.(s)) <- accumulated.(sp.edge.(s)) +. sp.amount.(s)
      done)
    flows;
  let congestion =
    Graph.fold_edges
      (fun acc e ->
        if e.Graph.capacity > 0.0 then
          Float.max acc (accumulated.(e.Graph.id) /. e.Graph.capacity)
        else acc)
      0.0 g
  in
  let scale = if congestion > 1.0 then 1.0 /. congestion else 1.0 in
  let flow = Array.make m 0.0 in
  let routed = Array.make n_com 0.0 in
  Array.iteri
    (fun j sp ->
      let shipped = routed_kept.(j) *. scale in
      let cap_j =
        if shipped > commodities.(j).demand then
          commodities.(j).demand /. shipped
        else 1.0
      in
      let factor = scale *. cap_j in
      for s = 0 to sp.count - 1 do
        flow.(sp.edge.(s)) <- flow.(sp.edge.(s)) +. (sp.amount.(s) *. factor)
      done;
      routed.(j) <- routed_kept.(j) *. factor)
    flows;
  let lambda =
    Array.to_list (Array.mapi (fun j r -> r /. commodities.(j).demand) routed)
    |> List.fold_left Float.min infinity
  in
  { lambda; flow; routed }

(* Fleischer's phase variant of Garg-Könemann.  Edge lengths start at
   delta / capacity.  Each phase routes every commodity's full demand,
   one source at a time: a step grows one shortest-path tree from the
   source, stopping once every destination it still needs is
   finalized, and sends each live commodity of the source the same
   fraction sigma <= 1 of its remaining demand along its tree path,
   with sigma as large as keeps every edge's flow in the step within
   its capacity.  An edge that carries f units in a step has its
   length multiplied by (1 + eps * f / c).  The next step reuses the
   same paths, without a search, while each is still within (1 + eps)
   of its length when its tree was grown; since lengths only grow,
   such a path is within (1 + eps) of shortest.  The solve stops once
   the dual objective sum_e length(e) * c(e) reaches 1.

   A source's current paths all come from its last tree, so their
   union is a subtree, kept as an edge list in which every edge comes
   after the edge into its tail.  A step works on that list, not on
   the paths: one backward pass pushes the live commodities' remaining
   demands up from their destinations to give each edge its load, and
   one forward pass gives each destination its current distance for
   the reuse test.  A commodity's flow on its current path is carried
   as one number and written to its edges' slots only when the path
   changes or the phase ends.

   The result is the flow of the completed phases: a phase cut short
   by the dual reaching 1 would give some commodities one more phase
   of flow than others, which raises congestion without raising the
   least ratio, so it is undone from the phase's undo log.  That flow
   is then scaled down by the worst congestion so it becomes feasible,
   and lambda is the resulting common fraction of demand shipped.
   When demand is so far above capacity that even the first phase
   lifts the dual past 1, there is no completed phase, and the partial
   one would leave the commodities after the cut with nothing (lambda
   0); the solve then starts over with phases that route half the
   demand, halving until a phase completes.

   No step allocates: lengths, loads and distances live in float
   arrays, every tree reuses one Dijkstra workspace whose view holds
   the positive-capacity edges, and a commodity's slots and the undo
   log grow only to fit the edges and writes they hold.  The dual
   objective is summed exactly at each phase head; within a phase the
   running estimate answers the per-step test, and the O(m) sum runs
   only when the estimate comes within [margin] of 1. *)
let solve_certified ?(epsilon = 0.1) g commodities =
  assert (epsilon > 0.0 && epsilon <= 0.5);
  Array.iter
    (fun c -> assert (c.demand > 0.0 && c.src <> c.dst))
    commodities;
  let m = Graph.n_edges g in
  let n_com = Array.length commodities in
  if n_com = 0 then
    {
      result = { lambda = infinity; flow = Array.make m 0.0; routed = [||] };
      lambda_upper = infinity;
    }
  else
    let delta =
      (float_of_int (max m 2) /. (1.0 -. epsilon)) ** (-1.0 /. epsilon)
    in
    let groups = group_by_source commodities in
    let usable_cap = Array.make m 0.0 and head = Array.make m 0 in
    Graph.iter_edges
      (fun e ->
        usable_cap.(e.Graph.id) <- e.Graph.capacity;
        head.(e.Graph.id) <- e.Graph.dst)
      g;
    let tail = (Graph.out_csr g).Graph.srcs in
    let ws = Shortest.Workspace.create ~usable:(fun eid -> usable_cap.(eid) > 0.0) g in
    (* A simple path, and a tree, has at most n - 1 edges, so a
       commodity's first path always fits its slots. *)
    let n = Graph.n_vertices g in
    let hops_max = max 1 (n - 1) in
    (* One solve in which each phase routes [share] of every demand. *)
    let rec attempt ~share =
      (* Zero-capacity edges are left out of the workspace's view, so
         their length is irrelevant. *)
      let length =
        Array.map (fun c -> if c > 0.0 then delta /. c else 0.0) usable_cap
      in
      let flows =
        Array.init n_com (fun _ ->
            { edge = Array.make hops_max 0; amount = Array.make hops_max 0.0; count = 0 })
      in
      (* [slot_of.(j).(e)] is commodity [j]'s slot for edge [e], or -1:
         an index of ints written once per slot, one row per commodity
         as the dense flow matrix had; the flow itself lives only in
         the slots. *)
      let slot_of = Array.init n_com (fun _ -> Array.make m (-1)) in
      let undo = { com = [||]; slot = [||]; old = [||]; len = 0 } in
      (* Commodity [j]'s current path: [hops.(j)] slots of [flows.(j)],
         the tree it came from ([planted.(j)], 0 before the first), its
         length when that tree was grown, and the flow sent along it
         in this phase and not yet written to its slots. *)
      let path = Array.init n_com (fun _ -> Array.make hops_max 0) in
      let hops = Array.make n_com 0 and planted = Array.make n_com 0 in
      let built = Array.make n_com 0.0 and carry = Array.make n_com 0.0 in
      let reachable = Array.make n_com true and remaining = Array.make n_com 0.0 in
      let routed_kept = Array.make n_com 0.0 and routed_pending = Array.make n_com 0.0 in
      (* Source [gi]'s subtree: [tree_size.(gi)] edges of [tree.(gi)],
         each after the edge into its tail, from tree [tree_id.(gi)]. *)
      let n_groups = Array.length groups in
      let tree = Array.init n_groups (fun _ -> Array.make hops_max 0) in
      let tree_size = Array.make n_groups 0 and tree_id = Array.make n_groups (-1) in
      let trees = ref 0 and on_tree = Array.make (max 1 n) 0 in
      let walked = Array.make hops_max 0 in
      (* Per-step edge loads, and per-vertex scratch for the passes. *)
      let load = Array.make m 0.0 in
      let vload = Array.make (max 1 n) 0.0 and vdist = Array.make (max 1 n) 0.0 in
      (* The live commodities of the source being routed, and their
         destinations. *)
      let live = Array.make n_com 0 and dsts = Array.make n_com 0 in
      let dual = [| 0.0 |] and steps = ref 0 in
      (* Writes commodity [j]'s carried flow to its path's slots,
         logged for undo unless the phase is already complete. *)
      let flush j ~logged =
        let c = carry.(j) in
        if c > 0.0 then begin
          let sp = flows.(j) and p = path.(j) in
          for h = 0 to hops.(j) - 1 do
            let s = p.(h) in
            if logged then log_write undo j sp s;
            sp.amount.(s) <- sp.amount.(s) +. c
          done;
          carry.(j) <- 0.0
        end
      in
      (* Current distance from [src] to every vertex of source [gi]'s
         subtree, in [vdist]: the sums run from the source outward,
         as a path's length would be summed. *)
      let distances gi src =
        let te = tree.(gi) in
        vdist.(src) <- 0.0;
        for t = 0 to tree_size.(gi) - 1 do
          let e = te.(t) in
          vdist.(head.(e)) <- vdist.(tail.(e)) +. length.(e)
        done
      in
      (* Grows one tree from [src] for the first [k] live commodities of
         source [gi] and gives each its tree path.  Those the tree does
         not reach never will be (the view and reachability are fixed
         for the solve), so they are dropped for good.  Returns how
         many stay live. *)
      let plant gi src k =
        Rwc_obs.Metrics.incr m_trees;
        incr trees;
        let stamp = !trees in
        for i = 0 to k - 1 do
          dsts.(i) <- commodities.(live.(i)).dst
        done;
        Shortest.Workspace.tree ws ~length ~src ~dsts ~n_dsts:k;
        let prev = Shortest.Workspace.parents ws and still = ref 0 in
        for i = 0 to k - 1 do
          let j = live.(i) in
          let dst = commodities.(j).dst in
          if not (Shortest.Workspace.reached ws dst) then begin
            reachable.(j) <- false;
            remaining.(j) <- 0.0
          end
          else begin
            (* One walk back from the destination marks the path's
               vertices for the subtree below, records its edges, and
               checks them against the commodity's current path: a
               tree often gives a commodity the path it already has,
               and its carried flow then stays on it. *)
            let sp = flows.(j) and p = path.(j) in
            let v = ref dst and h = ref 0 and same = ref true in
            while !v <> src do
              let e = prev.(!v) in
              on_tree.(!v) <- stamp;
              walked.(!h) <- e;
              let back = hops.(j) - 1 - !h in
              if back < 0 || sp.edge.(p.(back)) <> e then same := false;
              incr h;
              v := tail.(e)
            done;
            let h = !h in
            if not (!same && h = hops.(j)) then begin
              flush j ~logged:true;
              let row = slot_of.(j) in
              for i = 0 to h - 1 do
                let e = walked.(h - 1 - i) in
                let s = row.(e) in
                p.(i) <-
                  (if s >= 0 then s
                   else begin
                     let s = add_slot sp e in
                     row.(e) <- s;
                     s
                   end)
              done;
              hops.(j) <- h
            end;
            planted.(j) <- stamp;
            live.(!still) <- j;
            incr still
          end
        done;
        (* The subtree's edges in the order the search finalized their
           heads, so every edge comes after the edge into its tail, and
           the distances along them, summed from the source outward. *)
        let order = Shortest.Workspace.order ws and te = tree.(gi) and size = ref 0 in
        vdist.(src) <- 0.0;
        for i = 0 to Shortest.Workspace.n_finalized ws - 1 do
          let v = order.(i) in
          if on_tree.(v) = stamp then begin
            let e = prev.(v) in
            te.(!size) <- e;
            incr size;
            vdist.(v) <- vdist.(tail.(e)) +. length.(e)
          end
        done;
        tree_size.(gi) <- !size;
        tree_id.(gi) <- stamp;
        for i = 0 to !still - 1 do
          let j = live.(i) in
          built.(j) <- vdist.(commodities.(j).dst)
        done;
        !still
      in
      (* One step for the first [k] live commodities of source [gi],
         along their paths in its subtree.  Two passes over the
         subtree, none over the paths. *)
      let step gi src k ~reused =
        incr steps;
        let te = tree.(gi) and size = tree_size.(gi) in
        for i = 0 to k - 1 do
          let j = live.(i) in
          let v = commodities.(j).dst in
          vload.(v) <- vload.(v) +. remaining.(j)
        done;
        (* Backwards, every edge out of a vertex comes before the edge
           into it, so a vertex's load is complete when read; it is
           then cleared, leaving [vload] zero for the next step. *)
        let sigma = ref 1.0 in
        for t = size - 1 downto 0 do
          let e = te.(t) in
          let v = head.(e) in
          let l = vload.(v) in
          vload.(v) <- 0.0;
          load.(e) <- l;
          vload.(tail.(e)) <- vload.(tail.(e)) +. l;
          if l > 0.0 then begin
            let s = usable_cap.(e) /. l in
            if s < !sigma then sigma := s
          end
        done;
        vload.(src) <- 0.0;
        let sigma = !sigma in
        for i = 0 to k - 1 do
          let j = live.(i) in
          let f = sigma *. remaining.(j) in
          carry.(j) <- carry.(j) +. f;
          routed_pending.(j) <- routed_pending.(j) +. f;
          remaining.(j) <- remaining.(j) -. f
        done;
        Rwc_obs.Metrics.add m_paths k;
        if reused then Rwc_obs.Metrics.add m_path_reuses k;
        (* Forwards, grow the lengths and, since an edge's tail comes
           first, leave the new distances for the next reuse test. *)
        vdist.(src) <- 0.0;
        for t = 0 to size - 1 do
          let e = te.(t) in
          let l = load.(e) in
          if l > 0.0 then begin
            let cap = usable_cap.(e) and old = length.(e) in
            let grown = old *. (1.0 +. (epsilon *. sigma *. l /. cap)) in
            length.(e) <- grown;
            dual.(0) <- dual.(0) +. ((grown -. old) *. cap)
          end;
          vdist.(head.(e)) <- vdist.(tail.(e)) +. length.(e)
        done
      in
      (* Routes the phase's demand of source [gi]'s commodities;
         [false] when the dual objective reached 1 first. *)
      let route_source gi =
        let src, js = groups.(gi) in
        (* Whether [vdist] holds this source's subtree distances at the
           current lengths: true after its own step, false after other
           sources have routed. *)
        let open_ = ref true and reached_one = ref false and fresh = ref false in
        while !open_ do
          let k = ref 0 in
          for i = 0 to Array.length js - 1 do
            let j = js.(i) in
            if remaining.(j) > 1e-12 then begin
              live.(!k) <- j;
              incr k
            end
          done;
          if !k = 0 then open_ := false
          else if not (dual.(0) < 1.0 -. margin || dual_below_one length usable_cap dual)
          then begin
            open_ := false;
            reached_one := true
          end
          else begin
            (* Reuse needs every live path in the source's subtree and
               still within (1 + eps) of its length when grown. *)
            let stale = ref false in
            for i = 0 to !k - 1 do
              if planted.(live.(i)) <> tree_id.(gi) then stale := true
            done;
            if not !stale then begin
              if not !fresh then distances gi src;
              for i = 0 to !k - 1 do
                let j = live.(i) in
                if vdist.(commodities.(j).dst) > (1.0 +. epsilon) *. built.(j) then
                  stale := true
              done
            end;
            let k = if !stale then plant gi src !k else !k in
            if k > 0 then begin
              step gi src k ~reused:(not !stale);
              fresh := true
            end
          end
        done;
        not !reached_one
      in
      let phases = ref 0 and completed = ref 0 in
      (* A phase that finds no path changes no state, so every later
         phase would repeat it: stop instead of spinning to the cap. *)
      let stalled = ref false in
      while
        (not !stalled) && dual_below_one length usable_cap dual && !phases < max_phases
      do
        incr phases;
        Rwc_obs.Metrics.incr m_phases;
        (* Plain loops, not closures: a phase allocates nothing. *)
        for j = 0 to n_com - 1 do
          remaining.(j) <-
            (if reachable.(j) then share *. commodities.(j).demand else 0.0)
        done;
        undo.len <- 0;
        let steps_before = !steps and whole = ref true and gi = ref 0 in
        while !whole && !gi < n_groups do
          whole := route_source !gi;
          incr gi
        done;
        if !whole then begin
          incr completed;
          for j = 0 to n_com - 1 do
            flush j ~logged:false;
            routed_kept.(j) <- routed_kept.(j) +. routed_pending.(j);
            routed_pending.(j) <- 0.0
          done
        end
        else
          for i = undo.len - 1 downto 0 do
            flows.(undo.com.(i)).amount.(undo.slot.(i)) <- undo.old.(i)
          done;
        stalled := !steps = steps_before
      done;
      if !completed = 0 then attempt ~share:(share /. 2.0)
      else begin
        if (not !stalled) && dual_below_one length usable_cap dual then
          Rwc_obs.Metrics.incr m_phase_cap_hits;
        let lambda_upper = dual_bound ws ~length ~cap:usable_cap commodities groups in
        let result = scale_to_feasible g commodities flows routed_kept in
        { result; lambda_upper }
      end
    in
    attempt ~share:1.0

let solve ?epsilon g commodities = (solve_certified ?epsilon g commodities).result
