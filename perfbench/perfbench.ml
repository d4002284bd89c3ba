(* perfbench: the end-to-end and per-layer benchmark of the compiler.

     perfbench --workload compile|run|serve --seed N --seconds S --trace 0|1

   Three closed-loop workloads, one process each:

   - compile: cold [Pipeline.build] of the eleven catalog kernels;
   - run: [Exec.run] of the same kernels, compiled once in set-up;
   - serve: a skewed request stream into an in-process compile [Service].

   With [--trace 0] the last line of standard output is the result object
   with the end-to-end metrics; with [--trace 1] it carries the per-layer
   metrics instead (see README.md for every metric and what it moves). *)

module B = Tiramisu_backends
module P = Tiramisu_pipeline.Pipeline
module S = Tiramisu_service.Service
module Plan = Tiramisu_codegen.Parallel_plan
module Runner = Tiramisu_kernels.Runner
open Measure

type ctx = {
  seed : int;
  seconds : float;
  rng : Random.State.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* check failures, newest first *)
}

let bad ctx msg =
  if List.length ctx.errors < 20 then ctx.errors <- msg :: ctx.errors

let note_result ctx what = function
  | Ok _ -> ()
  | Error e -> bad ctx (what ^ ": " ^ e)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [host.calib_ms] samples, taken between rounds at most once a second,
   so the control costs every workload about the same share of its run. *)
let calib = ref []
let last_calib = ref neg_infinity

(* Whole rounds until the deadline; always at least [min_rounds]. *)
let rounds ?(min_rounds = 1) ~seconds f =
  let deadline = now_ms () +. (seconds *. 1000.0) in
  let n = ref 0 in
  while !n < min_rounds || now_ms () < deadline do
    f !n;
    if now_ms () -. !last_calib >= 1000.0 then begin
      calib := calib_ms () :: !calib;
      last_calib := now_ms ()
    end;
    incr n
  done

(* ---------- inputs and references, cached per (kernel, size) ---------- *)

let tables_tbl : (string * int, (string * Catalog.table) list) Hashtbl.t =
  Hashtbl.create 64

let tables ctx (k : Catalog.t) size =
  match Hashtbl.find_opt tables_tbl (k.name, size) with
  | Some t -> t
  | None ->
      let t = Catalog.tables ~seed:ctx.seed k size in
      Hashtbl.replace tables_tbl (k.name, size) t;
      t

(* The fill functions handed to the program: lookups into the tables. *)
let inputs ctx k size =
  List.map (fun (name, t) -> (name, Catalog.lookup t)) (tables ctx k size)

let refs_tbl : (string * int, Reference.out list) Hashtbl.t = Hashtbl.create 64

let refs ctx (k : Catalog.t) size =
  match Hashtbl.find_opt refs_tbl (k.name, size) with
  | Some r -> r
  | None ->
      let fills = Catalog.fills ~seed:ctx.seed k in
      let input name = List.assoc name fills in
      let r = Reference.of_kernel k.name ~params:(k.params size) ~input in
      Hashtbl.replace refs_tbl (k.name, size) r;
      r

let check_exec ctx (k : Catalog.t) size exec =
  note_result ctx
    (Printf.sprintf "%s at size %d" k.name size)
    (Checks.against_reference (refs ctx k size) exec)

(* Per-kernel medians on standard error, for reading a run by eye. *)
let print_table title (t : samples) =
  Printf.eprintf "%s\n" title;
  List.iter
    (fun (k : Catalog.t) ->
      match get t k.name with
      | [] -> ()
      | xs ->
          Printf.eprintf "  %-13s n=%-4d median %9.3f ms  min %9.3f ms\n"
            k.name (List.length xs) (median xs)
            (List.fold_left Float.min infinity xs))
    Catalog.all

(* ---------- set-up ---------- *)

(* Set-ups are timed step by step, each step starting from a collected
   heap, so the time of a step is the program's work on it and not the
   collection of an earlier step's garbage. *)
let step acc f =
  Gc.full_major ();
  let r, ms = time_ms f in
  acc := !acc +. ms;
  r

(* The set-up every workload starts with: each kernel at its reduced size,
   compiled and run, then compared bit for bit with the interpreter and
   with the reference. *)
let self_check ctx acc =
  P.clear_cache ();
  List.iter
    (fun (k : Catalog.t) ->
      let params = k.params k.small_size in
      let inputs = inputs ctx k k.small_size in
      let art, interp =
        step acc (fun () ->
            let art = P.build ~fn:(k.build ()) ~params ~inputs () in
            B.Exec.run art.P.exec;
            (art, Runner.run ~fn:(k.build ()) ~params ~inputs))
      in
      List.iter
        (fun (o : Reference.out) ->
          let name = o.Reference.o_name in
          note_result ctx (k.name ^ " (small) against the interpreter")
            (Checks.bitwise name (B.Exec.buffer art.P.exec name).B.Buffers.data
               (B.Interp.buffer interp name).B.Buffers.data))
        (refs ctx k k.small_size);
      check_exec ctx k k.small_size art.P.exec;
      note_result ctx k.name
        (Checks.self_test ~rng:ctx.rng (refs ctx k k.small_size)
           ~accepted_exec:art.P.exec);
      art.P.release ())
    Catalog.all

(* Set up three times and keep the last state; [setup_s] is the median. *)
let timed_setups ?(discard = ignore) f =
  let times = ref [] and last = ref None in
  for _ = 1 to 3 do
    (* drop the previous state first, so set-ups never overlap in memory *)
    Option.iter discard !last;
    last := None;
    P.clear_cache ();
    Gc.compact ();
    let acc = ref 0.0 in
    let st = f acc in
    times := (!acc /. 1000.0) :: !times;
    last := Some st
  done;
  Gc.compact ();
  Printf.eprintf "set-ups: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times));
  (Option.get !last, median !times)

(* ---------- compile ---------- *)

type compile_res = {
  c_ms : samples;  (* kernel -> untraced cold-compile ms *)
  c_pass : samples;  (* kernel/metric -> traced pass ms *)
  c_traced : samples;  (* kernel -> traced wall ms *)
  c_bufs : samples;  (* kernel -> buffer create+fill ms *)
}

let pass_metric = function
  | "widen-parallel" -> "pipeline.widen_ms"
  | "lower" -> "pipeline.lower_ms"
  | "legalize" -> "pipeline.legalize_ms"
  | "alloc-scope" -> "pipeline.alloc_scope_ms"
  | "narrow" -> "pipeline.narrow_ms"
  | "simplify" -> "pipeline.simplify_ms"
  | "parallel-plan" -> "pipeline.plan_ms"
  | "hash" -> "pipeline.hash_ms"
  | "tape-compile" | "compile" -> "pipeline.backend_ms"
  | _ -> "pipeline.other_ms"

let pass_metrics =
  [ "pipeline.widen_ms"; "pipeline.lower_ms"; "pipeline.legalize_ms";
    "pipeline.alloc_scope_ms"; "pipeline.narrow_ms"; "pipeline.simplify_ms";
    "pipeline.plan_ms"; "pipeline.hash_ms"; "pipeline.backend_ms";
    "pipeline.other_ms" ]

(* One cold compile at the run size: a fresh function, an empty cache, a
   [Miss], and the compiled kernel's outputs checked. *)
let cold_compile ctx ?tracer (k : Catalog.t) =
  P.clear_cache ();
  (* start every compile from a collected heap, so one compile's garbage
     is not collected inside the next one's timing *)
  Gc.full_major ();
  ctx.attempted <- ctx.attempted + 1;
  let fn = k.build () in
  let params = k.params k.run_size in
  let inputs = inputs ctx k k.run_size in
  match time_ms (fun () -> P.build ?tracer ~fn ~params ~inputs ()) with
  | exception e ->
      ctx.failed <- ctx.failed + 1;
      bad ctx (k.name ^ ": compile raised " ^ Printexc.to_string e);
      None
  | art, ms ->
      if art.P.cache <> P.Miss then bad ctx (k.name ^ ": compile was not a miss");
      B.Exec.run art.P.exec;
      check_exec ctx k k.run_size art.P.exec;
      art.P.release ();
      Some (fn, ms)

let compile_part ctx ~traced ~seconds =
  let r = { c_ms = samples (); c_pass = samples (); c_traced = samples ();
            c_bufs = samples () } in
  rounds ~seconds (fun round ->
      List.iter
        (fun (k : Catalog.t) ->
          let plain () =
            match cold_compile ctx k with
            | Some (_, ms) -> add r.c_ms k.name ms
            | None -> ()
          in
          let with_trace () =
            let tracer = P.make_tracer ~name:k.name () in
            match cold_compile ctx ~tracer k with
            | None -> ()
            | Some (fn, ms) ->
                let t = P.trace_of tracer in
                let per = Hashtbl.create 8 in
                List.iter
                  (fun (p : P.pass_trace) ->
                    let m = pass_metric p.P.p_name in
                    Hashtbl.replace per m
                      (p.P.p_ms +. Option.value ~default:0.0
                                     (Hashtbl.find_opt per m)))
                  t.P.t_passes;
                List.iter
                  (fun m ->
                    add r.c_pass (k.name ^ "/" ^ m)
                      (Option.value ~default:0.0 (Hashtbl.find_opt per m)))
                  pass_metrics;
                add r.c_traced k.name ms;
                (* what build_stmt does before compiling: allocate every
                   buffer at its extents and fill the inputs *)
                let params = k.params k.run_size in
                let inputs = inputs ctx k k.run_size in
                let _, bms =
                  time_ms (fun () ->
                      List.map
                        (fun (name, dims, mem) ->
                          let b = B.Buffers.create ~mem name dims in
                          (match List.assoc_opt name inputs with
                           | Some f -> B.Buffers.fill b f
                           | None -> ());
                          b)
                        (P.extents_of_fn fn ~params))
                in
                add r.c_bufs k.name bms
          in
          if not traced then plain ()
          else if round mod 2 = 0 then (with_trace (); plain ())
          else (plain (); with_trace ()))
        (shuffle ctx.rng Catalog.all));
  r

(* ---------- run ---------- *)

type live = {
  l_k : Catalog.t;
  l_art : P.artifact;
  l_snap : (B.Buffers.t * float array) list;  (* inputs as filled *)
}

let compile_live ctx ?(knobs = P.default_knobs) (k : Catalog.t) =
  let art =
    P.build ~knobs ~fn:(k.build ()) ~params:(k.params k.run_size)
      ~inputs:(inputs ctx k k.run_size) ()
  in
  let snap =
    List.map
      (fun (name, t) -> (B.Exec.buffer art.P.exec name, t.Catalog.t_data))
      (tables ctx k k.run_size)
  in
  B.Exec.run art.P.exec;
  { l_k = k; l_art = art; l_snap = snap }

(* One timed execution; the inputs are restored outside the timed region
   (edgeDetector writes its input in place). *)
let timed_run ctx (l : live) =
  List.iter
    (fun (b, d) -> Array.blit d 0 b.B.Buffers.data 0 (Array.length d))
    l.l_snap;
  ctx.attempted <- ctx.attempted + 1;
  match time_ms (fun () -> B.Exec.run l.l_art.P.exec) with
  | exception e ->
      ctx.failed <- ctx.failed + 1;
      bad ctx (l.l_k.name ^ ": run raised " ^ Printexc.to_string e);
      None
  | (), ms ->
      check_exec ctx l.l_k l.l_k.run_size l.l_art.P.exec;
      Some ms

type run_res = {
  r_ms : samples;  (* kernel -> Exec.run ms on the default target *)
  r_seq_ms : samples;  (* kernel -> Exec.run ms on cpu:seq (traced) *)
  r_live : live list;
}

let seq_knobs =
  match B.Target.of_string "cpu:seq" with
  | Ok target -> { P.default_knobs with P.target }
  | Error e -> failwith e

(* Rounds of [Exec.run] over [lives] in a seeded order, into [into]. *)
let run_rounds ctx ~seconds lives into =
  rounds ~min_rounds:5 ~seconds (fun _ ->
      List.iter
        (fun (l : live) -> Option.iter (add into l.l_k.name) (timed_run ctx l))
        (shuffle ctx.rng lives))

(* Traced, the default-target rounds are followed by the same rounds on
   [cpu:seq], compiled only then: running a kernel's [cpu:seq] executor
   between its pool runs slows the pool runs (conv2D about twice), so the
   two targets are timed in separate phases. *)
let run_part ctx ~traced ~seconds lives =
  List.iter (fun (l : live) -> check_exec ctx l.l_k l.l_k.run_size l.l_art.P.exec)
    lives;
  let r = { r_ms = samples (); r_seq_ms = samples (); r_live = lives } in
  if not traced then run_rounds ctx ~seconds lives r.r_ms
  else begin
    run_rounds ctx ~seconds:(seconds /. 2.0) lives r.r_ms;
    let seqs =
      List.map (fun (l : live) -> compile_live ctx ~knobs:seq_knobs l.l_k) lives
    in
    run_rounds ctx ~seconds:(seconds /. 2.0) seqs r.r_seq_ms
  end;
  r

let run_setup ctx acc =
  self_check ctx acc;
  P.clear_cache ();
  List.map (fun k -> step acc (fun () -> compile_live ctx k)) Catalog.all

(* ---------- serve ---------- *)

(* The request mix: the 33 (kernel, size) keys with a fixed Zipf-like
   skew over a fixed key order, so every round holds the same requests;
   the seed orders them.  The memory tier holds fewer keys than the mix. *)
(* Kernels by request heat, hottest first.  The hot keys are mid-cost
   kernels, so the median request sits inside one kernel's band of round
   trips rather than in the gap between a cheap and a costly kernel. *)
let heat_order =
  [ "conv2D"; "baryon"; "ticket2373"; "hpcg"; "blur"; "cvtColor";
    "warpAffine"; "gaussian"; "nb"; "edgeDetector"; "sgemm" ]

let serve_round_mix =
  (* every kernel's smallest size first, then the middle, then the
     largest; the i-th key of that order is requested round(6 / i) times
     (at least once) *)
  let ranked =
    List.concat_map
      (fun si ->
        List.map
          (fun name ->
            let k = Catalog.find name in
            (k, List.nth k.Catalog.serve_sizes si))
          heat_order)
      [ 0; 1; 2 ]
  in
  List.concat
    (List.mapi
       (fun i key ->
         let copies = Float.round (6.0 /. float_of_int (i + 1)) in
         List.init (max 1 (int_of_float copies)) (fun _ -> key))
       ranked)

let mem_cap = 12

type serve_res = {
  s_total : float list;  (* request round trip, ms *)
  s_class : samples;  (* kernel/size/tier -> request round trip, ms *)
  s_lower : float list;
  s_instantiate : float list;
  s_submit : samples;  (* tier -> server-side rs_ms *)
  s_wait : float list;  (* client-seen submit minus server time *)
  s_stats : S.stats;  (* summed over every server lifetime *)
  s_rounds : int;
  s_store_bytes : int;  (* the store's size at the end of a round *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec du path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0
        (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let store_root () =
  Filename.concat (Sys.getcwd ())
    (Printf.sprintf ".bench_build/perfbench-serve-%d" (Unix.getpid ()))

let add_stats (a : S.stats) (b : S.stats) =
  { S.requests = a.S.requests + b.S.requests;
    compiles = a.S.compiles + b.S.compiles;
    mem_hits = a.S.mem_hits + b.S.mem_hits;
    disk_hits = a.S.disk_hits + b.S.disk_hits;
    dedup_waits = a.S.dedup_waits + b.S.dedup_waits;
    rejected = a.S.rejected + b.S.rejected;
    failed = a.S.failed + b.S.failed;
    quarantined = a.S.quarantined + b.S.quarantined }

let zero_stats =
  { S.requests = 0; compiles = 0; mem_hits = 0; disk_hits = 0; dedup_waits = 0;
    rejected = 0; failed = 0; quarantined = 0 }

let serve_setup ctx acc =
  self_check ctx acc;
  P.clear_cache ();
  let root = store_root () in
  rm_rf root;
  (try Unix.mkdir (Filename.dirname root) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (root, step acc (fun () -> S.create ~mem_cap ~root ()))

let serve_discard (root, sv) =
  S.shutdown sv;
  rm_rf root;
  (try Unix.rmdir (Filename.dirname root) with Unix.Unix_error _ -> ())

let serve_part ctx ~seconds (root, sv0) =
  let total = ref [] and lower = ref [] and inst = ref [] and wait = ref [] in
  let submit = samples () and per_kernel = samples () in
  let per_class = samples () in
  let sv = ref sv0 and past = ref zero_stats in
  let seen = Hashtbl.create 64 in
  let request ((k : Catalog.t), size) =
    ctx.attempted <- ctx.attempted + 1;
    let params = k.params size in
    let inputs = inputs ctx k size in
    (* as for compiles: no earlier request's garbage in this one's timing *)
    Gc.full_major ();
    let before = S.stats !sv in
    let t0 = now_ms () in
    match
      let fn = k.build () in
      let req, l_ms = time_ms (fun () -> S.request_of_fn ~fn ~params ()) in
      let outcome, s_ms = time_ms (fun () -> S.submit !sv req) in
      match outcome with
      | S.Done rs ->
          let exec, i_ms = time_ms (fun () -> S.instantiate req rs ~inputs) in
          Ok (req, rs, exec, l_ms, s_ms, i_ms)
      | S.Rejected -> Error "rejected"
      | S.Failed m -> Error m
    with
    | exception e ->
        ctx.failed <- ctx.failed + 1;
        bad ctx (k.name ^ ": request raised " ^ Printexc.to_string e)
    | Error m ->
        ctx.failed <- ctx.failed + 1;
        bad ctx (k.name ^ ": request failed: " ^ m)
    | Ok (req, rs, exec, l_ms, s_ms, i_ms) ->
        let ms = now_ms () -. t0 in
        total := ms :: !total;
        add per_kernel k.name ms;
        lower := l_ms :: !lower;
        inst := i_ms :: !inst;
        let after = S.stats !sv in
        (match Checks.one_tier ~before ~after rs.S.rs_source with
         | Error e -> bad ctx (k.name ^ ": " ^ e)
         | Ok tier ->
             add submit (Checks.tier_name tier) rs.S.rs_ms;
             add per_class
               (Printf.sprintf "%s/%d/%s" k.name size (Checks.tier_name tier))
               ms;
             if tier <> `Mem then wait := (s_ms -. rs.S.rs_ms) :: !wait;
             note_result ctx k.name
               (Checks.compile_once seen ~key:(S.key_of req) tier));
        B.Exec.run exec;
        check_exec ctx k size exec
  in
  (* A round is one store's life: a server on the empty store takes the
     mix, restarts once on the same store (its memory tier starts empty)
     and takes the mix again; then the store is wiped.  Every round holds
     the same requests, so whole rounds keep the tier shares fixed. *)
  let bytes = ref 0 and n_rounds = ref 0 in
  let lifetime () =
    List.iter request (shuffle ctx.rng serve_round_mix);
    past := add_stats !past (S.stats !sv);
    S.shutdown !sv;
    Hashtbl.reset seen
  in
  rounds ~seconds (fun round ->
      if round > 0 then begin
        rm_rf root;
        sv := S.create ~mem_cap ~root ()
      end;
      lifetime ();
      sv := S.create ~mem_cap ~root ();
      lifetime ();
      incr n_rounds;
      bytes := du root);
  rm_rf root;
  (try Unix.rmdir (Filename.dirname root) with Unix.Unix_error _ -> ());
  print_table "request round trip" per_kernel;
  Printf.eprintf "serve: mean round trip %.2f ms, of which request_of_fn %.2f ms\n"
    (mean !total) (mean !lower);
  let stats = !past and bytes = !bytes in
  { s_total = !total; s_class = per_class; s_lower = !lower;
    s_instantiate = !inst; s_submit = submit; s_wait = !wait; s_stats = stats; s_rounds = !n_rounds;
    s_store_bytes = bytes }

(* ---------- metrics ---------- *)

(* Each kernel's median, in catalog order. *)
let kernel_medians (t : samples) =
  List.filter_map
    (fun (k : Catalog.t) ->
      match get t k.name with [] -> None | xs -> Some (median xs))
    Catalog.all

(* Operations per second with every operation timed at its class's median
   (its kernel; on serve its kernel, size and tier), so each class weighs
   by its share of the time and a slow spell of the host moves the rate
   only as far as it moves the medians.  Compile and run time whole rounds
   of the eleven kernels, so this is per second of the median round. *)
let class_rate (t : samples) =
  let n, ms =
    Hashtbl.fold
      (fun _ xs (n, ms) ->
        let c = List.length !xs in
        (n + c, ms +. (float_of_int c *. median !xs)))
      t (0, 0.0)
  in
  float_of_int n /. (ms /. 1000.0)

(* The process's high-water resident set less what the benchmark itself
   holds through the whole run (its input tables and references), so the
   metric is the program's memory. *)
let program_peak_mb () =
  let words = Obj.reachable_words (Obj.repr (tables_tbl, refs_tbl)) in
  peak_rss_mb () -. (float_of_int (words * (Sys.word_size / 8)) /. 1048576.0)

let end_to_end ~setup_s ~latency ~ops_per_s =
  [ m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MiB" (program_peak_mb ());
    m "latency_ms" "ms" latency;
    m "ops_per_s" "1/s" ops_per_s ]

let kernel_metrics ~setup_s (t : samples) =
  end_to_end ~setup_s ~latency:(geomean (kernel_medians t))
    ~ops_per_s:(class_rate t)

let mean_or0 = function [] -> 0.0 | xs -> mean xs

(* Where each kernel's traced compile went, on standard error. *)
let print_passes (c : compile_res) =
  Printf.eprintf "traced compile (mean ms): wall = passes + unattributed\n";
  List.iter
    (fun (k : Catalog.t) ->
      let pm name = mean_or0 (get c.c_pass (k.name ^ "/" ^ name)) in
      let wall = mean_or0 (get c.c_traced k.name) in
      let passes = sum (List.map pm pass_metrics) in
      Printf.eprintf
        "  %-13s wall %8.2f  widen %8.2f  lower %7.2f  plan %7.2f  \
         backend %6.2f  unattributed %7.2f  buffers %7.2f\n"
        k.name wall (pm "pipeline.widen_ms") (pm "pipeline.lower_ms")
        (pm "pipeline.plan_ms") (pm "pipeline.backend_ms") (wall -. passes)
        (mean_or0 (get c.c_bufs k.name)))
    Catalog.all

let compile_layers (c : compile_res) =
  let per_round key_of =
    sum (List.map (fun (k : Catalog.t) -> mean_or0 (get c.c_pass (key_of k))) Catalog.all)
  in
  let passes =
    List.map (fun pm -> m pm "ms" (per_round (fun k -> k.Catalog.name ^ "/" ^ pm)))
      pass_metrics
  in
  let sum_means t =
    sum (List.map (fun (k : Catalog.t) -> mean_or0 (get t k.name)) Catalog.all)
  in
  let traced = sum_means c.c_traced and plain = sum_means c.c_ms in
  let attributed = sum (List.map (fun x -> x.m_value) passes) in
  passes
  @ [ m "pipeline.unattributed_ms" "ms" (traced -. attributed);
      m "pipeline.traced_wall_ms" "ms" traced;
      m "pipeline.untraced_wall_ms" "ms" plain;
      m "trace.overhead_pct" "%" (((traced /. plain) -. 1.0) *. 100.0);
      m "buffers.setup_ms" "ms" (sum_means c.c_bufs) ]

let run_layers (r : run_res) =
  let per_kernel =
    List.map
      (fun (k : Catalog.t) ->
        m ("run." ^ k.name ^ "_ms") "ms" (median (get r.r_ms k.name)))
      Catalog.all
  in
  let count f = float_of_int (List.fold_left (fun acc l -> acc + f l) 0 r.r_live) in
  let ex f = count (fun l -> f l.l_art.P.exec) in
  let plan f = count (fun l -> f l.l_art.P.plan_report) in
  let speedup =
    geomean
      (List.map
         (fun (k : Catalog.t) ->
           median (get r.r_seq_ms k.name) /. median (get r.r_ms k.name))
         Catalog.all)
  in
  per_kernel
  @ [ m "tape.claimed_nests" "count" (ex B.Exec.tape_count);
      m "tape.vector_nests" "count" (ex B.Exec.tape_vec_count);
      m "tape.unclaimed_kernels" "count"
        (count (fun l -> if B.Exec.tape_count l.l_art.P.exec = 0 then 1 else 0));
      m "tape.runtime_fallbacks" "count" (ex B.Exec.tape_fallbacks);
      m "exec.spec_loops" "count" (ex B.Exec.spec_count);
      m "exec.static_loops" "count" (ex B.Exec.static_count);
      m "exec.pool_fallbacks" "count" (ex B.Exec.pool_fallbacks);
      m "plan.coalesced" "count" (plan (fun p -> p.Plan.r_coalesced));
      m "plan.serialized" "count" (plan (fun p -> p.Plan.r_serialized));
      m "pool.speedup" "x" speedup ]

let serve_layers (s : serve_res) =
  let tier t = mean_or0 (get s.s_submit t) in
  let st = s.s_stats in
  let per_round name n =
    m name "count/round" (float_of_int n /. float_of_int s.s_rounds)
  in
  [ m "service.request_ms_p90" "ms" (quantile 0.9 s.s_total);
    m "service.lower_ms" "ms" (mean_or0 s.s_lower);
    m "service.instantiate_ms" "ms" (mean_or0 s.s_instantiate);
    m "service.queue_wait_ms" "ms" (mean_or0 s.s_wait);
    m "service.submit_ms.compiled" "ms" (tier "compiled");
    m "service.submit_ms.disk" "ms" (tier "disk");
    m "service.submit_ms.mem" "ms" (tier "mem");
    per_round "service.compiles" st.S.compiles;
    per_round "service.mem_hits" st.S.mem_hits;
    per_round "service.disk_hits" st.S.disk_hits;
    per_round "service.dedup_waits" st.S.dedup_waits;
    per_round "service.quarantined" st.S.quarantined;
    m "store.bytes" "B" (float_of_int s.s_store_bytes) ]

(* ---------- main ---------- *)

let workloads = [ "compile"; "run"; "serve" ]

let refused_env =
  [ "TIRAMISU_ASSUME_CORES"; "TIRAMISU_NUM_DOMAINS"; "TIRAMISU_POOL_MIN_WORK" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload compile|run|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "compile|run|serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer") ]
    (fun a -> prerr_endline ("unexpected argument " ^ a); usage ())
    "perfbench";
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
   | [] -> ()
   | set ->
       Printf.eprintf
         "perfbench: refusing to run with %s set: it changes the parallel plan\n"
         (String.concat ", " set);
       exit 2);
  let cpus = granted_cpus () in
  if B.Pool.num_workers () <> cpus then B.Pool.set_num_workers cpus;
  Printf.printf
    "fingerprint: {\"granted_cpus\": %d, \"recommended_domains\": %d, \
     \"pool_workers\": %d, \"effective_parallelism\": %d, \"ocaml\": %S, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d}\n%!"
    cpus (Domain.recommended_domain_count ()) (B.Pool.num_workers ())
    (B.Pool.effective_parallelism ()) Sys.ocaml_version !workload !seed
    !seconds !trace;
  let ctx = { seed = !seed; seconds = float_of_int !seconds;
              rng = Random.State.make [| !seed; 0x7e11 |];
              attempted = 0; failed = 0; errors = [] } in
  let traced = !trace = 1 in
  let own w = if w = !workload then ctx.seconds else 0.0 in
  (* Input tables and references are benchmark work: make them all before
     the timed set-ups, so they are out of the timings, and hold them
     through the run, so [program_peak_mb] can take them out of the
     memory peak. *)
  List.iter
    (fun (k : Catalog.t) ->
      let sizes =
        match !workload with
        | _ when traced -> k.run_size :: k.serve_sizes
        | "serve" -> k.serve_sizes
        | _ -> [ k.run_size ]
      in
      List.iter
        (fun size ->
          ignore (tables ctx k size);
          ignore (refs ctx k size))
        (k.small_size :: sizes))
    Catalog.all;
  let metrics =
    if not traced then
      match !workload with
      | "compile" ->
          let (), setup_s = timed_setups (self_check ctx) in
          let c = compile_part ctx ~traced:false ~seconds:ctx.seconds in
          print_table "cold compile" c.c_ms;
          kernel_metrics ~setup_s c.c_ms
      | "run" ->
          let lives, setup_s = timed_setups (run_setup ctx) in
          let r = run_part ctx ~traced:false ~seconds:ctx.seconds lives in
          print_table "Exec.run" r.r_ms;
          kernel_metrics ~setup_s r.r_ms
      | _ ->
          let st, setup_s =
            timed_setups ~discard:serve_discard (serve_setup ctx)
          in
          let s = serve_part ctx ~seconds:ctx.seconds st in
          end_to_end ~setup_s ~latency:(median s.s_total)
            ~ops_per_s:(class_rate s.s_class)
    else begin
      let c = compile_part ctx ~traced:true ~seconds:(own "compile") in
      let lives = run_setup ctx (ref 0.0) in
      let r = run_part ctx ~traced:true ~seconds:(own "run") lives in
      let s = serve_part ctx ~seconds:(own "serve") (serve_setup ctx (ref 0.0)) in
      print_passes c;
      print_table "Exec.run" r.r_ms;
      compile_layers c @ run_layers r @ serve_layers s
      @ [ m "host.calib_ms" "ms" (median !calib) ]
    end
  in
  (* the control in untraced runs too, so two sets of runs can be compared
     for host drift (steady.py reports it) *)
  Printf.printf "control: {\"host.calib_ms\": %s}\n"
    (json_number (median !calib));
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) (List.rev ctx.errors);
  print_endline
    (result_line ~correct:(ctx.errors = []) ~attempted:ctx.attempted
       ~failed:ctx.failed metrics)
