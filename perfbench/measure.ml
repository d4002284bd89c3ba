(* Clock, statistics, machine facts and the result line. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Measure.quantile: no samples"
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
       /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---------- per-key sample table ---------- *)

type samples = (string, float list ref) Hashtbl.t

let samples () : samples = Hashtbl.create 16

let add (t : samples) key v =
  match Hashtbl.find_opt t key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.replace t key (ref [ v ])

let get (t : samples) key =
  match Hashtbl.find_opt t key with Some r -> !r | None -> []

(* ---------- machine facts ---------- *)

let status_field field =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | line ->
              let pre = field ^ ":" in
              let n = String.length pre in
              if String.length line > n && String.sub line 0 n = pre then
                Some (String.trim (String.sub line n (String.length line - n)))
              else go ()
          | exception End_of_file -> None
        in
        go ())
  with Sys_error _ -> None

(* High-water resident set, MiB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> nan)
  | None -> nan

(* CPUs the OS lets this process run on ("0-1,4" -> 3). *)
let granted_cpus () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' (String.trim part) with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
          | _ -> acc)
        0 (String.split_on_char ',' l)

(* A fixed pure-OCaml loop that allocates the way the compiler does:
   short-lived boxed values and lists on the minor heap, and arrays that
   live long enough to be promoted and left to the incremental major GC.
   No collection is forced inside the timing, so the time does not grow
   with the workload's own heap.  It depends on nothing in the compiler,
   so a change in its time means the host got slower or faster at
   allocation-heavy work, the kind that compiles and requests are made
   of. *)
let calib_ms () =
  Gc.full_major ();
  let _, ms =
    time_ms (fun () ->
        let keep = Hashtbl.create 4096 and acc = ref [] and x = ref 0.5 in
        for i = 1 to 300_000 do
          acc := (float_of_int i *. !x, i) :: !acc;
          x := (!x *. 0.999) +. 0.001;
          if i land 63 = 0 then begin
            Hashtbl.replace keep (i land 4095) (Array.of_list !acc);
            acc := []
          end
        done;
        Sys.opaque_identity (Hashtbl.length keep))
  in
  (* leave no garbage of the control's for the workload to collect *)
  Gc.full_major ();
  ms

(* ---------- output ---------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
          (json_number x.m_value) x.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
