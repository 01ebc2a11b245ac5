(* Benchmark-side spans around the calls the benchmark makes into each
   layer's public functions: name, start, end and the enclosing span. They
   are kept in memory while the run measures and written out once at the
   end, and only a traced run records them. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at the top level *)
  start_ns : int64;
  mutable end_ns : int64;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      { id = !next_id; name; parent; start_ns = Obs.Prof.now_ns (); end_ns = 0L }
    in
    incr next_id;
    spans := s :: !spans;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- Obs.Prof.now_ns ();
        stack := List.tl !stack)
      f
  end

let to_json header =
  Obs.Json.Obj
    (header
    @ [
        ( "spans",
          Obs.Json.List
            (List.rev_map
               (fun s ->
                 Obs.Json.Obj
                   [
                     ("id", Obs.Json.Int s.id);
                     ("name", Obs.Json.String s.name);
                     ("parent", Obs.Json.Int s.parent);
                     ("start_ns", Obs.Json.Int (Int64.to_int s.start_ns));
                     ("end_ns", Obs.Json.Int (Int64.to_int s.end_ns));
                   ])
               !spans) );
      ])
