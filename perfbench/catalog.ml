(* The benchmark's kernel catalog: the eleven kernels of the compiler's
   catalog, each with its CPU schedule ([tuned] for sgemm), the sizes the
   workloads use and seeded inputs.  Which buffers are its outputs is the
   reference's business ([Reference]).

   The kernel definitions and schedules are the library's ([Image], [Linalg],
   [Schedules]); only the sizes and the input data are the benchmark's. *)

open Tiramisu_kernels
module Ir = Tiramisu_core.Ir
module P = Tiramisu_pipeline.Pipeline

type t = {
  name : string;
  build : unit -> Ir.fn;  (* a fresh function with its CPU schedule applied *)
  params : int -> (string * int) list;  (* size -> parameter values *)
  run_size : int;  (* a run takes roughly 10 ms or more on two cores *)
  small_size : int;  (* the size of the bitwise check against [Interp] *)
  serve_sizes : int list;
  inputs : string list;  (* input buffers, filled from the seed *)
}

let sched apply build () =
  let f = build () in
  apply f;
  f

let nm n = [ ("N", n); ("M", n) ]

let all =
  [
    { name = "blur";
      build = sched (fun f -> Schedules.cpu_blur f)
          (fun () -> let f, _, _ = Image.blur () in f);
      params = nm; run_size = 320; small_size = 20;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img" ] };
    { name = "cvtColor";
      build = sched Schedules.cpu_cvt_color (fun () -> fst (Image.cvt_color ()));
      params = nm; run_size = 1024; small_size = 24;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img" ] };
    { name = "conv2D";
      build = sched Schedules.cpu_conv2d
          (fun () -> let f, _, _ = Image.conv2d () in f);
      params = nm; run_size = 128; small_size = 20;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img"; "weights" ] };
    { name = "warpAffine";
      build = sched Schedules.cpu_warp_affine
          (fun () -> fst (Image.warp_affine ()));
      params = nm; run_size = 128; small_size = 20;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img" ] };
    { name = "gaussian";
      build = sched Schedules.cpu_gaussian
          (fun () -> let f, _, _ = Image.gaussian () in f);
      params = nm; run_size = 128; small_size = 20;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img" ] };
    { name = "nb";
      build = sched (Schedules.cpu_nb ~fuse:true)
          (fun () -> let f, _, _, _, _ = Image.nb () in f);
      params = nm; run_size = 400; small_size = 20;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img" ] };
    { name = "edgeDetector";
      build = sched Schedules.cpu_edge_detector
          (fun () -> let f, _, _ = Image.edge_detector () in f);
      params = (fun n -> [ ("N", n) ]); run_size = 320; small_size = 20;
      serve_sizes = [ 32; 64; 128 ];
      inputs = [ "img" ] };
    { name = "ticket2373";
      build = sched Schedules.cpu_ticket2373
          (fun () -> fst (Image.ticket2373 ()));
      params = (fun n -> [ ("N", n) ]); run_size = 2304; small_size = 16;
      serve_sizes = [ 64; 256; 1024 ];
      inputs = [ "img" ] };
    { name = "sgemm";
      build = sched (fun f -> Linalg.sgemm_tuned f)
          (fun () -> let f, _, _ = Linalg.sgemm () in f);
      params = (fun s -> [ ("S", s) ]); run_size = 80; small_size = 16;
      serve_sizes = [ 32; 64; 96 ];
      inputs = [ "A"; "B"; "C0" ] };
    { name = "hpcg";
      build = sched Linalg.hpcg_schedule (fun () -> fst (Linalg.hpcg ()));
      params = (fun g -> [ ("G", g) ]); run_size = 40; small_size = 10;
      serve_sizes = [ 16; 24; 32 ];
      inputs = [ "p" ] };
    { name = "baryon";
      build = sched Linalg.baryon_schedule
          (fun () -> let f, _, _ = Linalg.baryon () in f);
      (* D is the contraction extent; T (the vectorized dim) scales *)
      params = (fun t -> [ ("T", t); ("D", 16) ]); run_size = 256;
      small_size = 8; serve_sizes = [ 16; 32; 64 ];
      inputs = [ "w"; "P1"; "P2"; "P3" ] };
  ]

let find name = List.find (fun k -> k.name = name) all

(* ---------- seeded inputs ---------- *)

(* A value in {0, 1/16, ..., 63/16} from (seed, buffer, index): small dyadic
   numbers keep most sums exact, so the reference comparison is tight. *)
let value ~seed ~salt (idx : int array) =
  let h = ref ((seed * 0x9E3779B1) lxor (salt * 0x85EBCA77)) in
  for k = 0 to Array.length idx - 1 do
    h := (!h lxor (idx.(k) + (k * 0x27D4EB2F))) * 0x165667B1;
    h := !h lxor (!h lsr 29)
  done;
  float_of_int ((!h lsr 11) land 63) /. 16.0

(* conv2D's weights are a 3x3 stencil: keep them a normalized kernel so
   the outputs stay image-valued whatever the seed. *)
let conv_weights ~seed (idx : int array) =
  let base = [| 1.; 2.; 1.; 2.; 4.; 2.; 1.; 2.; 1. |] in
  let k = (idx.(0) * 3) + idx.(1) in
  (base.(k) +. float_of_int ((seed + k) land 3)) /. 32.0

let fills ~seed (k : t) =
  List.mapi
    (fun salt name ->
      let f =
        if k.name = "conv2D" && name = "weights" then conv_weights ~seed
        else value ~seed ~salt:(salt + Hashtbl.hash (k.name, name))
      in
      (name, f))
    k.inputs

(* ---------- tabulated inputs ---------- *)

(* An input's contents over its buffer's extents, made once outside every
   timing.  The program fills its buffers through [lookup], so a timed
   build pays for filling them and not for the hash in [value]. *)
type table = { t_dims : int array; t_data : float array }

let lookup t (idx : int array) =
  let flat = ref 0 in
  for k = 0 to Array.length idx - 1 do
    flat := (!flat * t.t_dims.(k)) + idx.(k)
  done;
  t.t_data.(!flat)

(* Every input of [k] at [size], tabulated from [fills] in row-major order
   over the extents the pipeline gives its buffers (some buffers are only
   declared by lowering). *)
let tables ~seed k size =
  let fn = k.build () in
  ignore (Tiramisu_core.Lower.lower fn);
  let extents = P.extents_of_fn fn ~params:(k.params size) in
  List.map
    (fun (name, f) ->
      let _, dims, _ = List.find (fun (n, _, _) -> n = name) extents in
      (name, { t_dims = dims; t_data = Reference.tab dims f }))
    (fills ~seed k)
